//! A TPC-H data generator (schema-faithful, scale-factor parameterized).
//!
//! Generates the eight TPC-H relations as plain Rust column vectors, which
//! are then (a) loaded into simulated disaggregated memory by
//! [`crate::db::Database::load`] and (b) evaluated directly by the oracle
//! (`crate::oracle`) to validate every query result.
//!
//! Cardinalities follow the spec: at scale factor 1 — 1.5 M orders, ~6 M
//! lineitems, 200 K parts, 10 K suppliers, 800 K partsupps, 150 K
//! customers. The paper runs SF 50–200; this reproduction scales down while
//! keeping the compute-cache : working-set ratio, which is what governs
//! paging behavior.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::types::{pack_name, Date, Dictionary, PART_NAME_WORDS};

/// TPC-H's color vocabulary for `p_name` (Q9 filters `LIKE '%green%'`,
/// matching ~5% of parts with five words drawn from this list).
pub const COLORS: &[&str] = &[
    "almond",
    "antique",
    "aquamarine",
    "azure",
    "beige",
    "bisque",
    "black",
    "blanched",
    "blue",
    "blush",
    "brown",
    "burlywood",
    "burnished",
    "chartreuse",
    "chiffon",
    "chocolate",
    "coral",
    "cornflower",
    "cornsilk",
    "cream",
    "cyan",
    "dark",
    "deep",
    "dim",
    "dodger",
    "drab",
    "firebrick",
    "floral",
    "forest",
    "frosted",
    "gainsboro",
    "ghost",
    "goldenrod",
    "green",
    "grey",
    "honeydew",
    "hot",
    "indian",
    "ivory",
    "khaki",
    "lace",
    "lavender",
    "lawn",
    "lemon",
    "light",
    "lime",
    "linen",
    "magenta",
    "maroon",
    "medium",
    "metallic",
    "midnight",
    "mint",
    "misty",
    "moccasin",
    "navajo",
    "navy",
    "olive",
    "orange",
    "orchid",
    "pale",
    "papaya",
    "peach",
    "peru",
    "pink",
    "plum",
    "powder",
    "puff",
    "purple",
    "red",
    "rose",
    "rosy",
    "royal",
    "saddle",
    "salmon",
    "sandy",
    "seashell",
    "sienna",
    "sky",
    "slate",
    "smoke",
    "snow",
    "spring",
    "steel",
    "tan",
    "thistle",
    "tomato",
    "turquoise",
    "violet",
    "wheat",
    "white",
    "yellow",
];

pub const MKT_SEGMENTS: &[&str] = &[
    "AUTOMOBILE",
    "BUILDING",
    "FURNITURE",
    "MACHINERY",
    "HOUSEHOLD",
];

pub const SHIP_MODES: &[&str] = &["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"];

pub const PRIORITIES: &[&str] = &["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];

pub const NATIONS: &[(&str, i64)] = &[
    ("ALGERIA", 0),
    ("ARGENTINA", 1),
    ("BRAZIL", 1),
    ("CANADA", 1),
    ("EGYPT", 4),
    ("ETHIOPIA", 0),
    ("FRANCE", 3),
    ("GERMANY", 3),
    ("INDIA", 2),
    ("INDONESIA", 2),
    ("IRAN", 4),
    ("IRAQ", 4),
    ("JAPAN", 2),
    ("JORDAN", 4),
    ("KENYA", 0),
    ("MOROCCO", 0),
    ("MOZAMBIQUE", 0),
    ("PERU", 1),
    ("CHINA", 2),
    ("ROMANIA", 3),
    ("SAUDI ARABIA", 4),
    ("VIETNAM", 2),
    ("RUSSIA", 3),
    ("UNITED KINGDOM", 3),
    ("UNITED STATES", 1),
];

pub const REGIONS: &[&str] = &["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];

#[derive(Debug, Clone, Default)]
pub struct Lineitem {
    pub orderkey: Vec<i64>, // sorted ascending (clustered, as dbgen emits)
    pub partkey: Vec<i64>,
    pub suppkey: Vec<i64>,
    pub linenumber: Vec<i64>,
    pub quantity: Vec<f64>,
    pub extendedprice: Vec<f64>,
    pub discount: Vec<f64>,
    pub tax: Vec<f64>,
    pub returnflag: Vec<u8>,
    pub linestatus: Vec<u8>,
    pub shipdate: Vec<i32>,
    pub commitdate: Vec<i32>,
    pub receiptdate: Vec<i32>,
    pub shipmode: Vec<u8>,
}

impl Lineitem {
    fn with_capacity(n: usize) -> Lineitem {
        Lineitem {
            orderkey: Vec::with_capacity(n),
            partkey: Vec::with_capacity(n),
            suppkey: Vec::with_capacity(n),
            linenumber: Vec::with_capacity(n),
            quantity: Vec::with_capacity(n),
            extendedprice: Vec::with_capacity(n),
            discount: Vec::with_capacity(n),
            tax: Vec::with_capacity(n),
            returnflag: Vec::with_capacity(n),
            linestatus: Vec::with_capacity(n),
            shipdate: Vec::with_capacity(n),
            commitdate: Vec::with_capacity(n),
            receiptdate: Vec::with_capacity(n),
            shipmode: Vec::with_capacity(n),
        }
    }

    pub fn len(&self) -> usize {
        self.orderkey.len()
    }

    pub fn is_empty(&self) -> bool {
        self.orderkey.is_empty()
    }
}

#[derive(Debug, Clone, Default)]
pub struct Orders {
    pub orderkey: Vec<i64>, // sorted ascending
    pub custkey: Vec<i64>,
    pub orderstatus: Vec<u8>,
    pub totalprice: Vec<f64>,
    pub orderdate: Vec<i32>,
    pub orderpriority: Vec<u8>,
    pub shippriority: Vec<i64>,
}

impl Orders {
    fn with_capacity(n: usize) -> Orders {
        Orders {
            orderkey: Vec::with_capacity(n),
            custkey: Vec::with_capacity(n),
            orderstatus: Vec::with_capacity(n),
            totalprice: Vec::with_capacity(n),
            orderdate: Vec::with_capacity(n),
            orderpriority: Vec::with_capacity(n),
            shippriority: Vec::with_capacity(n),
        }
    }

    pub fn len(&self) -> usize {
        self.orderkey.len()
    }

    pub fn is_empty(&self) -> bool {
        self.orderkey.is_empty()
    }
}

#[derive(Debug, Clone, Default)]
pub struct Part {
    pub partkey: Vec<i64>, // 1..=n, dense
    pub name: Vec<u64>,    // five packed color codes
    pub brand: Vec<u8>,
    pub size: Vec<i64>,
    pub container: Vec<u8>,
    pub retailprice: Vec<f64>,
}

impl Part {
    fn with_capacity(n: usize) -> Part {
        Part {
            partkey: Vec::with_capacity(n),
            name: Vec::with_capacity(n),
            brand: Vec::with_capacity(n),
            size: Vec::with_capacity(n),
            container: Vec::with_capacity(n),
            retailprice: Vec::with_capacity(n),
        }
    }

    pub fn len(&self) -> usize {
        self.partkey.len()
    }

    pub fn is_empty(&self) -> bool {
        self.partkey.is_empty()
    }
}

#[derive(Debug, Clone, Default)]
pub struct Supplier {
    pub suppkey: Vec<i64>, // 1..=n, dense
    pub nationkey: Vec<i64>,
    pub acctbal: Vec<f64>,
}

impl Supplier {
    fn with_capacity(n: usize) -> Supplier {
        Supplier {
            suppkey: Vec::with_capacity(n),
            nationkey: Vec::with_capacity(n),
            acctbal: Vec::with_capacity(n),
        }
    }

    pub fn len(&self) -> usize {
        self.suppkey.len()
    }

    pub fn is_empty(&self) -> bool {
        self.suppkey.is_empty()
    }
}

#[derive(Debug, Clone, Default)]
pub struct PartSupp {
    /// Sorted by partkey: four suppliers per part, in
    /// [`supplier_for_part`]'s order (not ascending where it wraps).
    pub partkey: Vec<i64>,
    pub suppkey: Vec<i64>,
    pub availqty: Vec<i64>,
    pub supplycost: Vec<f64>,
}

impl PartSupp {
    fn with_capacity(n: usize) -> PartSupp {
        PartSupp {
            partkey: Vec::with_capacity(n),
            suppkey: Vec::with_capacity(n),
            availqty: Vec::with_capacity(n),
            supplycost: Vec::with_capacity(n),
        }
    }

    pub fn len(&self) -> usize {
        self.partkey.len()
    }

    pub fn is_empty(&self) -> bool {
        self.partkey.is_empty()
    }
}

#[derive(Debug, Clone, Default)]
pub struct Customer {
    pub custkey: Vec<i64>, // 1..=n, dense
    pub nationkey: Vec<i64>,
    pub mktsegment: Vec<u8>,
    pub acctbal: Vec<f64>,
}

impl Customer {
    fn with_capacity(n: usize) -> Customer {
        Customer {
            custkey: Vec::with_capacity(n),
            nationkey: Vec::with_capacity(n),
            mktsegment: Vec::with_capacity(n),
            acctbal: Vec::with_capacity(n),
        }
    }

    pub fn len(&self) -> usize {
        self.custkey.len()
    }

    pub fn is_empty(&self) -> bool {
        self.custkey.is_empty()
    }
}

#[derive(Debug, Clone, Default)]
pub struct Nation {
    pub nationkey: Vec<i64>,
    pub name: Vec<String>,
    pub regionkey: Vec<i64>,
}

/// The generated database (plain host memory; load it into a simulated
/// platform with [`crate::db::Database::load`]).
#[derive(Debug, Clone)]
pub struct TpchData {
    pub sf: f64,
    pub lineitem: Lineitem,
    pub orders: Orders,
    pub part: Part,
    pub supplier: Supplier,
    pub partsupp: PartSupp,
    pub customer: Customer,
    pub nation: Nation,
    pub colors: Dictionary,
    pub segments: Dictionary,
    pub shipmodes: Dictionary,
    pub priorities: Dictionary,
}

/// Number of suppliers listed per part (TPC-H fixes this at 4).
pub const SUPPLIERS_PER_PART: usize = 4;

/// Most lineitems an order has (the spec draws 1 to 7).
const MAX_LINES_PER_ORDER: usize = 7;

impl TpchData {
    /// Generate a database at scale factor `sf` with a fixed seed.
    /// Identical `(sf, seed)` always produce identical data.
    ///
    /// Every column is allocated once at its final size (lineitem at its
    /// 7-lines-an-order bound, whose unused tail is never touched), so no
    /// column is copied while it grows.
    pub fn generate(sf: f64, seed: u64) -> TpchData {
        assert!(sf > 0.0, "scale factor must be positive");
        let mut rng = StdRng::seed_from_u64(seed);

        let n_part = ((200_000.0 * sf) as usize).max(64);
        let n_supp = ((10_000.0 * sf) as usize).max(SUPPLIERS_PER_PART * 2);
        let n_cust = ((150_000.0 * sf) as usize).max(32);
        let n_orders = ((1_500_000.0 * sf) as usize).max(64);

        let start = Date::from_ymd(1992, 1, 1).raw();
        let end = Date::from_ymd(1998, 8, 2).raw();
        // Lines received by then may be returned; lines shipped after it
        // are still open.
        let cutoff = Date::from_ymd(1995, 6, 17).raw();

        // --- part ---
        let mut part = Part::with_capacity(n_part);
        for pk in 1..=n_part as i64 {
            part.partkey.push(pk);
            let mut words = [0u8; PART_NAME_WORDS];
            for w in &mut words {
                *w = rng.random_range(0..COLORS.len() as u32) as u8;
            }
            part.name.push(pack_name(words));
            part.brand.push(rng.random_range(0..25));
            part.size.push(rng.random_range(1..=50));
            part.container.push(rng.random_range(0..40));
            part.retailprice
                .push((90_000 + (pk % 200_001) * 100 % 20_001) as f64 / 100.0);
        }

        // --- supplier ---
        let mut supplier = Supplier::with_capacity(n_supp);
        for sk in 1..=n_supp as i64 {
            supplier.suppkey.push(sk);
            supplier.nationkey.push(rng.random_range(0..25));
            supplier
                .acctbal
                .push(rng.random_range(-99_999..=999_999) as f64 / 100.0);
        }

        // --- partsupp: the spec's four suppliers per part ---
        let mut partsupp = PartSupp::with_capacity(n_part * SUPPLIERS_PER_PART);
        for pk in 1..=n_part as i64 {
            for i in 0..SUPPLIERS_PER_PART as i64 {
                let sk = supplier_for_part(pk, i, n_supp);
                partsupp.partkey.push(pk);
                partsupp.suppkey.push(sk);
                partsupp.availqty.push(rng.random_range(1..=9999));
                partsupp
                    .supplycost
                    .push(rng.random_range(100..=100_000) as f64 / 100.0);
            }
        }

        // --- customer ---
        let mut customer = Customer::with_capacity(n_cust);
        for ck in 1..=n_cust as i64 {
            customer.custkey.push(ck);
            customer.nationkey.push(rng.random_range(0..25));
            customer
                .mktsegment
                .push(rng.random_range(0..MKT_SEGMENTS.len() as u32) as u8);
            customer
                .acctbal
                .push(rng.random_range(-99_999..=999_999) as f64 / 100.0);
        }

        // --- orders + lineitem (clustered by orderkey) ---
        let mut orders = Orders::with_capacity(n_orders);
        let mut li = Lineitem::with_capacity(n_orders * MAX_LINES_PER_ORDER);
        for ok in 1..=n_orders as i64 {
            let odate = rng.random_range(start..end - 151);
            orders.orderkey.push(ok);
            orders.custkey.push(rng.random_range(1..=n_cust as i64));
            orders.orderdate.push(odate);
            orders
                .orderpriority
                .push(rng.random_range(0..PRIORITIES.len() as u32) as u8);
            orders.shippriority.push(0);

            let lines = rng.random_range(1..=MAX_LINES_PER_ORDER as i64);
            let mut total = 0.0;
            for ln in 1..=lines {
                let pk = rng.random_range(1..=n_part as i64);
                let which = rng.random_range(0..SUPPLIERS_PER_PART as i64);
                let sk = supplier_for_part(pk, which, n_supp);
                let qty = rng.random_range(1..=50) as f64;
                let price_base = 90_000.0 + ((pk % 20_000) as f64) + 100.0;
                let eprice = (qty * price_base / 100.0 * 100.0).round() / 100.0;
                let discount = rng.random_range(0..=10) as f64 / 100.0;
                let tax = rng.random_range(0..=8) as f64 / 100.0;
                let sdate = odate + rng.random_range(1..=121);
                let cdate = odate + rng.random_range(30..=90);
                let rdate = sdate + rng.random_range(1..=30);

                li.orderkey.push(ok);
                li.partkey.push(pk);
                li.suppkey.push(sk);
                li.linenumber.push(ln);
                li.quantity.push(qty);
                li.extendedprice.push(eprice);
                li.discount.push(discount);
                li.tax.push(tax);
                // Return flag/status per spec shape: based on dates.
                li.returnflag.push(if rdate <= cutoff {
                    if rng.random_bool(0.5) {
                        b'R'
                    } else {
                        b'A'
                    }
                } else {
                    b'N'
                });
                li.linestatus.push(if sdate > cutoff { b'O' } else { b'F' });
                li.shipdate.push(sdate);
                li.commitdate.push(cdate);
                li.receiptdate.push(rdate);
                li.shipmode
                    .push(rng.random_range(0..SHIP_MODES.len() as u32) as u8);
                total += eprice * (1.0 - discount) * (1.0 + tax);
            }
            orders.totalprice.push((total * 100.0).round() / 100.0);
            orders.orderstatus.push(b'O');
        }

        let mut nation = Nation::default();
        for (i, &(name, region)) in NATIONS.iter().enumerate() {
            nation.nationkey.push(i as i64);
            nation.name.push(name.to_string());
            nation.regionkey.push(region);
        }

        TpchData {
            sf,
            lineitem: li,
            orders,
            part,
            supplier,
            partsupp,
            customer,
            nation,
            colors: Dictionary::new(COLORS.iter().copied()),
            segments: Dictionary::new(MKT_SEGMENTS.iter().copied()),
            shipmodes: Dictionary::new(SHIP_MODES.iter().copied()),
            priorities: Dictionary::new(PRIORITIES.iter().copied()),
        }
    }

    /// Approximate in-memory footprint of the hot columns, used to size the
    /// compute cache at the paper's ratio.
    pub fn working_set_bytes(&self) -> usize {
        let li = self.lineitem.len();
        let ord = self.orders.len();
        li * (8 * 8 + 4 * 3 + 3) // lineitem numeric + date + code columns
            + ord * (8 * 3 + 4 + 2)
            + self.part.len() * (8 * 4 + 2)
            + self.partsupp.len() * (8 * 3 + 8)
            + self.supplier.len() * (8 * 3)
            + self.customer.len() * (8 * 3 + 1)
    }
}

/// The TPC-H formula (simplified) tying a part to its four suppliers;
/// lineitem rows pick one of these, so every `(l_partkey, l_suppkey)`
/// exists in partsupp. The spec's extra `(partkey-1)/S` term is dropped:
/// it only matters at S values far above any scale simulated here, and at
/// small S it breaks the formula's distinctness guarantee.
pub fn supplier_for_part(partkey: i64, which: i64, n_supp: usize) -> i64 {
    let s = n_supp as i64;
    debug_assert!(s >= SUPPLIERS_PER_PART as i64);
    (partkey + which * (s / SUPPLIERS_PER_PART as i64)) % s + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> TpchData {
        TpchData::generate(0.002, 7)
    }

    #[test]
    fn generation_is_deterministic() {
        let a = TpchData::generate(0.002, 7);
        let b = TpchData::generate(0.002, 7);
        assert_eq!(a.lineitem.extendedprice, b.lineitem.extendedprice);
        assert_eq!(a.part.name, b.part.name);
        let c = TpchData::generate(0.002, 8);
        assert_ne!(a.lineitem.partkey, c.lineitem.partkey, "seed matters");
    }

    #[test]
    fn cardinalities_scale() {
        let d = tiny();
        assert_eq!(d.part.len(), 400);
        assert_eq!(d.partsupp.len(), 1600);
        assert_eq!(d.orders.len(), 3000);
        assert!(d.lineitem.len() >= d.orders.len(), "1..7 lines per order");
        assert!(d.lineitem.len() <= d.orders.len() * 7);
        assert_eq!(d.nation.name.len(), 25);
    }

    #[test]
    fn orderkeys_are_clustered_and_sorted() {
        let d = tiny();
        assert!(d.orders.orderkey.windows(2).all(|w| w[0] < w[1]));
        assert!(d.lineitem.orderkey.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn lineitem_partsupp_referential_integrity() {
        let d = tiny();
        use std::collections::HashSet;
        let ps: HashSet<(i64, i64)> = d
            .partsupp
            .partkey
            .iter()
            .zip(&d.partsupp.suppkey)
            .map(|(&p, &s)| (p, s))
            .collect();
        for i in 0..d.lineitem.len() {
            let key = (d.lineitem.partkey[i], d.lineitem.suppkey[i]);
            assert!(
                ps.contains(&key),
                "lineitem row {i} has no partsupp {key:?}"
            );
        }
    }

    #[test]
    fn foreign_keys_are_in_range() {
        let d = tiny();
        let n_supp = d.supplier.len() as i64;
        let n_cust = d.customer.len() as i64;
        assert!(d
            .partsupp
            .suppkey
            .iter()
            .all(|&s| (1..=n_supp).contains(&s)));
        assert!(d.orders.custkey.iter().all(|&c| (1..=n_cust).contains(&c)));
        assert!(d.supplier.nationkey.iter().all(|&n| (0..25).contains(&n)));
    }

    #[test]
    fn dates_are_in_the_spec_window() {
        let d = tiny();
        let start = Date::from_ymd(1992, 1, 1).raw();
        let end = Date::from_ymd(1999, 1, 1).raw();
        assert!(d.orders.orderdate.iter().all(|&x| x >= start && x < end));
        assert!(d.lineitem.shipdate.iter().all(|&x| x > start && x < end));
        // Shipdate is always after the order date.
        // (Check via the join: lineitem i belongs to order orderkey[i].)
        let mut order_date = std::collections::HashMap::new();
        for i in 0..d.orders.len() {
            order_date.insert(d.orders.orderkey[i], d.orders.orderdate[i]);
        }
        for i in 0..d.lineitem.len() {
            assert!(d.lineitem.shipdate[i] > order_date[&d.lineitem.orderkey[i]]);
        }
    }

    #[test]
    fn green_parts_have_q9_like_selectivity() {
        let d = TpchData::generate(0.01, 3);
        let green = d.colors.code_of("green").unwrap();
        let matches = d
            .part
            .name
            .iter()
            .filter(|&&n| crate::types::name_contains(n, green))
            .count();
        let rate = matches as f64 / d.part.len() as f64;
        assert!(
            (0.02..0.10).contains(&rate),
            "LIKE '%green%' selectivity was {rate:.3}"
        );
    }

    /// FNV-1a-64 of every generated column (each value's little-endian
    /// bytes, floats by their bits), named `table.column`.
    fn column_fingerprints(d: &TpchData) -> Vec<(&'static str, u64)> {
        fn fp<T: Copy, const N: usize>(col: &[T], bytes: impl Fn(T) -> [u8; N]) -> u64 {
            let flat: Vec<u8> = col.iter().flat_map(|&v| bytes(v)).collect();
            ddc_sim::trace::fnv1a(&flat)
        }
        let (i, f, d32, b) = (
            |c: &[i64]| fp(c, i64::to_le_bytes),
            |c: &[f64]| fp(c, |v: f64| v.to_bits().to_le_bytes()),
            |c: &[i32]| fp(c, i32::to_le_bytes),
            |c: &[u8]| fp(c, |v: u8| [v]),
        );
        let (li, o, p, s, ps, c) = (
            &d.lineitem,
            &d.orders,
            &d.part,
            &d.supplier,
            &d.partsupp,
            &d.customer,
        );
        vec![
            ("lineitem.orderkey", i(&li.orderkey)),
            ("lineitem.partkey", i(&li.partkey)),
            ("lineitem.suppkey", i(&li.suppkey)),
            ("lineitem.linenumber", i(&li.linenumber)),
            ("lineitem.quantity", f(&li.quantity)),
            ("lineitem.extendedprice", f(&li.extendedprice)),
            ("lineitem.discount", f(&li.discount)),
            ("lineitem.tax", f(&li.tax)),
            ("lineitem.returnflag", b(&li.returnflag)),
            ("lineitem.linestatus", b(&li.linestatus)),
            ("lineitem.shipdate", d32(&li.shipdate)),
            ("lineitem.commitdate", d32(&li.commitdate)),
            ("lineitem.receiptdate", d32(&li.receiptdate)),
            ("lineitem.shipmode", b(&li.shipmode)),
            ("orders.orderkey", i(&o.orderkey)),
            ("orders.custkey", i(&o.custkey)),
            ("orders.orderstatus", b(&o.orderstatus)),
            ("orders.totalprice", f(&o.totalprice)),
            ("orders.orderdate", d32(&o.orderdate)),
            ("orders.orderpriority", b(&o.orderpriority)),
            ("orders.shippriority", i(&o.shippriority)),
            ("part.partkey", i(&p.partkey)),
            ("part.name", fp(&p.name, u64::to_le_bytes)),
            ("part.brand", b(&p.brand)),
            ("part.size", i(&p.size)),
            ("part.container", b(&p.container)),
            ("part.retailprice", f(&p.retailprice)),
            ("supplier.suppkey", i(&s.suppkey)),
            ("supplier.nationkey", i(&s.nationkey)),
            ("supplier.acctbal", f(&s.acctbal)),
            ("partsupp.partkey", i(&ps.partkey)),
            ("partsupp.suppkey", i(&ps.suppkey)),
            ("partsupp.availqty", i(&ps.availqty)),
            ("partsupp.supplycost", f(&ps.supplycost)),
            ("customer.custkey", i(&c.custkey)),
            ("customer.nationkey", i(&c.nationkey)),
            ("customer.mktsegment", b(&c.mktsegment)),
            ("customer.acctbal", f(&c.acctbal)),
            ("nation.nationkey", i(&d.nation.nationkey)),
            ("nation.regionkey", i(&d.nation.regionkey)),
        ]
    }

    /// Every column of the sf-0.01 data, pinned for two seeds: a generator
    /// edit that moves any value (a reordered RNG draw, a changed formula)
    /// fails here by the column's name, before any query pin notices.
    #[test]
    fn generated_columns_are_pinned() {
        #[rustfmt::skip]
        const PINS: &[(&str, u64, u64)] = &[
            ("lineitem.orderkey", 0x679124ff25f83c0f, 0xdd2af4742183f4e5),
            ("lineitem.partkey", 0x49e97aa0ad1b339e, 0xf71cf6f4d0d59d6d),
            ("lineitem.suppkey", 0xf8ee0ca02d660de1, 0x6054297f2505eb74),
            ("lineitem.linenumber", 0xfcf57671b7b47286, 0x30386e7d54fee287),
            ("lineitem.quantity", 0xf9cb06655cf68790, 0x72c9bdc95f368630),
            ("lineitem.extendedprice", 0x8b7c1c9aed58b00b, 0xcf1e23ce48b59927),
            ("lineitem.discount", 0x0a158615f2b32ab4, 0xec137994f0b899d6),
            ("lineitem.tax", 0x986d2762d018aaf3, 0x9523a59e0aabec90),
            ("lineitem.returnflag", 0x0a4098dc08713df8, 0xfc1e405995d880e1),
            ("lineitem.linestatus", 0xd9d6af7cf099b895, 0x3408882ffb7f57c0),
            ("lineitem.shipdate", 0xfc7a41b57e0d2b40, 0xde2a3b7bd01ad693),
            ("lineitem.commitdate", 0xc116a1853b97416e, 0x71770c4a077dc320),
            ("lineitem.receiptdate", 0x30d634bc0a4f2f0b, 0xe848da1f6bf706bb),
            ("lineitem.shipmode", 0x2cba7b981449d70e, 0x78b01e776b85124b),
            ("orders.orderkey", 0x7ad3dfe24b8b9b07, 0x7ad3dfe24b8b9b07),
            ("orders.custkey", 0x477030e538f83aa4, 0x20e56c15410af204),
            ("orders.orderstatus", 0x02763c549314c56d, 0x02763c549314c56d),
            ("orders.totalprice", 0xcb732d4a5df763ad, 0x5f4ada28182d6d28),
            ("orders.orderdate", 0x2d4969fe82179879, 0x9dc251e6925200a6),
            ("orders.orderpriority", 0xc53763c39be68e0a, 0x9147800f23fe5041),
            ("orders.shippriority", 0xe94d157b19346225, 0xe94d157b19346225),
            ("part.partkey", 0x10c2067d6afe5fd8, 0x10c2067d6afe5fd8),
            ("part.name", 0x79d1a842c9b78c16, 0x35028bebf9f7d0d2),
            ("part.brand", 0x499a701285262a60, 0x0119c542ef831ce3),
            ("part.size", 0xdfd6c046bd217362, 0xa8bc892ad2273b51),
            ("part.container", 0xf29400bd9a45858a, 0x0bd14d4819a64a2a),
            ("part.retailprice", 0xd9243f36a5359008, 0xd9243f36a5359008),
            ("supplier.suppkey", 0xb95b5467b0b22341, 0xb95b5467b0b22341),
            ("supplier.nationkey", 0x3b998f7aa437db36, 0xa67cb69748a3f241),
            ("supplier.acctbal", 0xaf4b339669c1a2c7, 0xe4a742b3aa218bf6),
            ("partsupp.partkey", 0x13da237a1a1ce565, 0x13da237a1a1ce565),
            ("partsupp.suppkey", 0x61c7bd879b141d25, 0x61c7bd879b141d25),
            ("partsupp.availqty", 0x5315049ab7932d13, 0xf449c5f56c8a6142),
            ("partsupp.supplycost", 0x8bde660dc2d757b4, 0xe5e13dfc5f983f91),
            ("customer.custkey", 0x512418fce70d2386, 0x512418fce70d2386),
            ("customer.nationkey", 0x6eb1c4889a484eca, 0x6d5d27f086fadb99),
            ("customer.mktsegment", 0xd83ca85e478ea19b, 0x6d4d12585b2ddec5),
            ("customer.acctbal", 0xc2c44afc54e7a989, 0x2f64a8a39a4c45f9),
            ("nation.nationkey", 0x6173f8c60ed7dcdd, 0x6173f8c60ed7dcdd),
            ("nation.regionkey", 0x8fdc36a295d1dec1, 0x8fdc36a295d1dec1),
        ];
        let a = column_fingerprints(&TpchData::generate(0.01, 42));
        let b = column_fingerprints(&TpchData::generate(0.01, 20220612));
        assert_eq!(a.len(), PINS.len(), "one pin a column");
        for (((name, x), (_, y)), &(pin, px, py)) in a.iter().zip(&b).zip(PINS) {
            assert_eq!(*name, pin, "pin order");
            assert_eq!((*x, *y), (px, py), "{name}: seed 42 / 20220612 moved");
        }
    }

    #[test]
    fn working_set_estimate_is_sane() {
        let d = tiny();
        let ws = d.working_set_bytes();
        assert!(ws > 100_000, "working set {ws}");
        assert!(ws < 10_000_000);
    }
}
