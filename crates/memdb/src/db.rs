//! Loading the generated TPC-H data into simulated (disaggregated) memory.
//!
//! Columns become typed [`Region`]s in the process address space — the
//! MonetDB buffer pool living in the memory pool, with the compute-local
//! cache in front of it. Dictionaries and the 25-row nation table stay
//! host-side as catalog metadata, as a columnar DBMS would keep them hot.

use teleport::{Mem, Region};

use crate::tpch::TpchData;
use crate::types::Dictionary;

/// Lineitem columns in simulated memory.
#[derive(Debug, Clone, Copy)]
pub struct LineitemT {
    pub n: usize,
    pub orderkey: Region<i64>,
    pub partkey: Region<i64>,
    pub suppkey: Region<i64>,
    pub quantity: Region<f64>,
    pub extendedprice: Region<f64>,
    pub discount: Region<f64>,
    pub tax: Region<f64>,
    pub returnflag: Region<u8>,
    pub linestatus: Region<u8>,
    pub shipdate: Region<i32>,
    pub commitdate: Region<i32>,
    pub receiptdate: Region<i32>,
    pub shipmode: Region<u8>,
}

#[derive(Debug, Clone, Copy)]
pub struct OrdersT {
    pub n: usize,
    pub orderkey: Region<i64>,
    pub custkey: Region<i64>,
    pub totalprice: Region<f64>,
    pub orderdate: Region<i32>,
    pub orderpriority: Region<u8>,
    pub shippriority: Region<i64>,
}

#[derive(Debug, Clone, Copy)]
pub struct PartT {
    pub n: usize,
    pub partkey: Region<i64>,
    pub name: Region<u64>,
    pub brand: Region<u8>,
    pub size: Region<i64>,
    pub retailprice: Region<f64>,
}

#[derive(Debug, Clone, Copy)]
pub struct SupplierT {
    pub n: usize,
    pub suppkey: Region<i64>,
    pub nationkey: Region<i64>,
    pub acctbal: Region<f64>,
}

#[derive(Debug, Clone, Copy)]
pub struct PartSuppT {
    pub n: usize,
    pub partkey: Region<i64>,
    pub suppkey: Region<i64>,
    pub availqty: Region<i64>,
    pub supplycost: Region<f64>,
}

#[derive(Debug, Clone, Copy)]
pub struct CustomerT {
    pub n: usize,
    pub custkey: Region<i64>,
    pub nationkey: Region<i64>,
    pub mktsegment: Region<u8>,
    pub acctbal: Region<f64>,
}

/// The loaded database: regions in simulated memory + host-side catalog.
#[derive(Debug, Clone)]
pub struct Database {
    pub li: LineitemT,
    pub ord: OrdersT,
    pub part: PartT,
    pub supp: SupplierT,
    pub ps: PartSuppT,
    pub cust: CustomerT,
    /// Nation names by nationkey (25 rows; catalog metadata).
    pub nation_name: Vec<String>,
    /// Region key of each nation (catalog metadata).
    pub nation_region: Vec<i64>,
    /// Region names by regionkey.
    pub region_name: Vec<String>,
    pub colors: Dictionary,
    pub segments: Dictionary,
    pub shipmodes: Dictionary,
    pub priorities: Dictionary,
}

impl Database {
    /// Load the generated data into `m`'s address space. Typically followed
    /// by `drop_cache()` + `begin_timing()` so queries start cold and at
    /// t=0.
    pub fn load<M: Mem>(m: &mut M, data: &TpchData) -> Database {
        let li = LineitemT {
            n: data.lineitem.len(),
            orderkey: m.alloc_region_from(&data.lineitem.orderkey),
            partkey: m.alloc_region_from(&data.lineitem.partkey),
            suppkey: m.alloc_region_from(&data.lineitem.suppkey),
            quantity: m.alloc_region_from(&data.lineitem.quantity),
            extendedprice: m.alloc_region_from(&data.lineitem.extendedprice),
            discount: m.alloc_region_from(&data.lineitem.discount),
            tax: m.alloc_region_from(&data.lineitem.tax),
            returnflag: m.alloc_region_from(&data.lineitem.returnflag),
            linestatus: m.alloc_region_from(&data.lineitem.linestatus),
            shipdate: m.alloc_region_from(&data.lineitem.shipdate),
            commitdate: m.alloc_region_from(&data.lineitem.commitdate),
            receiptdate: m.alloc_region_from(&data.lineitem.receiptdate),
            shipmode: m.alloc_region_from(&data.lineitem.shipmode),
        };
        let ord = OrdersT {
            n: data.orders.len(),
            orderkey: m.alloc_region_from(&data.orders.orderkey),
            custkey: m.alloc_region_from(&data.orders.custkey),
            totalprice: m.alloc_region_from(&data.orders.totalprice),
            orderdate: m.alloc_region_from(&data.orders.orderdate),
            orderpriority: m.alloc_region_from(&data.orders.orderpriority),
            shippriority: m.alloc_region_from(&data.orders.shippriority),
        };
        let part = PartT {
            n: data.part.len(),
            partkey: m.alloc_region_from(&data.part.partkey),
            name: m.alloc_region_from(&data.part.name),
            brand: m.alloc_region_from(&data.part.brand),
            size: m.alloc_region_from(&data.part.size),
            retailprice: m.alloc_region_from(&data.part.retailprice),
        };
        let supp = SupplierT {
            n: data.supplier.len(),
            suppkey: m.alloc_region_from(&data.supplier.suppkey),
            nationkey: m.alloc_region_from(&data.supplier.nationkey),
            acctbal: m.alloc_region_from(&data.supplier.acctbal),
        };
        let ps = PartSuppT {
            n: data.partsupp.len(),
            partkey: m.alloc_region_from(&data.partsupp.partkey),
            suppkey: m.alloc_region_from(&data.partsupp.suppkey),
            availqty: m.alloc_region_from(&data.partsupp.availqty),
            supplycost: m.alloc_region_from(&data.partsupp.supplycost),
        };
        let cust = CustomerT {
            n: data.customer.len(),
            custkey: m.alloc_region_from(&data.customer.custkey),
            nationkey: m.alloc_region_from(&data.customer.nationkey),
            mktsegment: m.alloc_region_from(&data.customer.mktsegment),
            acctbal: m.alloc_region_from(&data.customer.acctbal),
        };
        Database {
            li,
            ord,
            part,
            supp,
            ps,
            cust,
            nation_name: data.nation.name.clone(),
            nation_region: data.nation.regionkey.clone(),
            region_name: crate::tpch::REGIONS.iter().map(|s| s.to_string()).collect(),
            colors: data.colors.clone(),
            segments: data.segments.clone(),
            shipmodes: data.shipmodes.clone(),
            priorities: data.priorities.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddc_os::Pattern;
    use ddc_sim::DdcConfig;
    use teleport::Runtime;

    #[test]
    fn load_roundtrips_values() {
        let data = TpchData::generate(0.001, 11);
        let mut rt = Runtime::teleport(DdcConfig::default());
        let db = Database::load(&mut rt, &data);
        assert_eq!(db.li.n, data.lineitem.len());
        // Spot-check a few values through the metered path.
        for &i in &[0usize, db.li.n / 2, db.li.n - 1] {
            assert_eq!(
                rt.get(&db.li.orderkey, i, Pattern::Rand),
                data.lineitem.orderkey[i]
            );
            assert_eq!(
                rt.get(&db.li.extendedprice, i, Pattern::Rand),
                data.lineitem.extendedprice[i]
            );
            assert_eq!(
                rt.get(&db.li.shipdate, i, Pattern::Rand),
                data.lineitem.shipdate[i]
            );
            assert_eq!(
                rt.get(&db.li.returnflag, i, Pattern::Rand),
                data.lineitem.returnflag[i]
            );
        }
        assert_eq!(rt.get(&db.part.name, 3, Pattern::Rand), data.part.name[3]);
        assert_eq!(db.nation_name.len(), 25);
    }
}
