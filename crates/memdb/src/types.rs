//! Value types of the columnar engine: calendar dates and dictionary-coded
//! strings.

use std::fmt;

/// A calendar date stored as days since 1970-01-01 (can be negative).
/// Columns store the raw `i32`; this wrapper provides exact civil-calendar
/// conversions (Howard Hinnant's algorithm), which the engine needs for
/// `YEAR(o_orderdate)` grouping in TPC-H Q9.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Date(pub i32);

impl Date {
    /// Construct from a civil calendar date. Panics on out-of-range month.
    ///
    /// # Examples
    ///
    /// ```
    /// use memdb::Date;
    /// let d = Date::from_ymd(1995, 3, 15);
    /// assert_eq!(d.to_string(), "1995-03-15");
    /// assert_eq!(d.year(), 1995);
    /// assert!(d < Date::from_ymd(1995, 3, 16));
    /// ```
    pub fn from_ymd(y: i32, m: u32, d: u32) -> Date {
        assert!((1..=12).contains(&m), "month {m} out of range");
        assert!((1..=31).contains(&d), "day {d} out of range");
        // days_from_civil (proleptic Gregorian).
        let y = if m <= 2 { y - 1 } else { y };
        let era = if y >= 0 { y } else { y - 399 } / 400;
        let yoe = (y - era * 400) as i64; // [0, 399]
        let mp = ((m + 9) % 12) as i64; // [0, 11], Mar=0
        let doy = (153 * mp + 2) / 5 + d as i64 - 1; // [0, 365]
        let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
        Date((era as i64 * 146_097 + doe - 719_468) as i32)
    }

    /// Decompose into (year, month, day).
    fn to_ymd(self) -> (i32, u32, u32) {
        let z = self.0 as i64 + 719_468;
        let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
        let doe = z - era * 146_097; // [0, 146096]
        let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146_096) / 365; // [0, 399]
        let y = yoe + era * 400;
        let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
        let mp = (5 * doy + 2) / 153; // [0, 11]
        let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
        let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
        let y = if m <= 2 { y + 1 } else { y };
        (y as i32, m, d)
    }

    /// The calendar year, as TPC-H's `EXTRACT(YEAR FROM ...)`.
    pub fn year(self) -> i32 {
        self.to_ymd().0
    }

    /// The date `n` days later.
    pub fn plus_days(self, n: i32) -> Date {
        Date(self.0 + n)
    }

    pub fn raw(self) -> i32 {
        self.0
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (y, m, d) = self.to_ymd();
        write!(f, "{y:04}-{m:02}-{d:02}")
    }
}

/// A small string dictionary: columns store `u8` codes, the dictionary maps
/// codes back to strings. Dictionaries are catalog metadata (tiny; resident
/// compute-side), exactly as a columnar DBMS keeps them hot.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Dictionary {
    entries: Vec<String>,
}

impl Dictionary {
    pub fn new<S: Into<String>>(entries: impl IntoIterator<Item = S>) -> Self {
        let entries: Vec<String> = entries.into_iter().map(Into::into).collect();
        assert!(entries.len() <= 256, "u8 dictionary overflow");
        Dictionary { entries }
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn decode(&self, code: u8) -> &str {
        &self.entries[code as usize]
    }

    pub fn code_of(&self, s: &str) -> Option<u8> {
        self.entries.iter().position(|e| e == s).map(|i| i as u8)
    }
}

/// TPC-H `p_name` is a concatenation of five words from a color list; Q9
/// filters with `p_name LIKE '%green%'`. We store a part name as five color
/// codes packed into a `u64`, so the LIKE predicate is "any of the five
/// bytes equals the color's code" — the same per-tuple scan work at a
/// fraction of the storage.
pub const PART_NAME_WORDS: usize = 5;

/// Pack five color codes into a u64.
pub fn pack_name(words: [u8; PART_NAME_WORDS]) -> u64 {
    words
        .iter()
        .enumerate()
        .fold(0u64, |acc, (i, &w)| acc | (w as u64) << (8 * i))
}

/// Does the packed name contain `code`? (`LIKE '%word%'`.)
#[inline]
pub fn name_contains(packed: u64, code: u8) -> bool {
    (0..PART_NAME_WORDS).any(|i| ((packed >> (8 * i)) & 0xFF) as u8 == code)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn date_roundtrips_epoch_and_tpch_range() {
        assert_eq!(Date::from_ymd(1970, 1, 1).raw(), 0);
        assert_eq!(Date(0).to_ymd(), (1970, 1, 1));
        for &(y, m, d) in &[
            (1992, 1, 1),
            (1995, 3, 15),
            (1998, 8, 2),
            (2000, 2, 29), // leap day
            (1900, 3, 1),
        ] {
            let date = Date::from_ymd(y, m, d);
            assert_eq!(date.to_ymd(), (y, m, d), "roundtrip {y}-{m}-{d}");
        }
    }

    proptest! {
        /// Civil-calendar dates round-trip across the whole TPC-H window
        /// and stay ordered.
        #[test]
        fn dates_roundtrip_and_order(days in prop::collection::vec(7000i32..11_000, 2..50)) {
            for &d in &days {
                let date = Date(d);
                let (y, m, dd) = date.to_ymd();
                prop_assert_eq!(Date::from_ymd(y, m, dd), date);
                prop_assert!((1989..=2000).contains(&y));
            }
            let mut sorted = days.clone();
            sorted.sort_unstable();
            for w in sorted.windows(2) {
                prop_assert!(Date(w[0]) <= Date(w[1]));
            }
        }
    }

    #[test]
    fn date_ordering_matches_calendar() {
        let a = Date::from_ymd(1994, 12, 31);
        let b = Date::from_ymd(1995, 1, 1);
        assert!(a < b);
        assert_eq!(a.plus_days(1), b);
        assert_eq!(b.year(), 1995);
    }

    #[test]
    fn date_display() {
        assert_eq!(Date::from_ymd(1995, 3, 5).to_string(), "1995-03-05");
    }

    #[test]
    fn dictionary_roundtrip() {
        let d = Dictionary::new(["BUILDING", "AUTOMOBILE", "MACHINERY"]);
        assert_eq!(d.len(), 3);
        assert_eq!(d.code_of("MACHINERY"), Some(2));
        assert_eq!(d.decode(0), "BUILDING");
        assert_eq!(d.code_of("missing"), None);
    }

    #[test]
    fn packed_names_support_like() {
        let name = pack_name([3, 10, 7, 3, 90]);
        assert!(name_contains(name, 10));
        assert!(name_contains(name, 90));
        assert!(!name_contains(name, 11));
    }

    #[test]
    fn leap_year_math() {
        // 1996 is a leap year, 1900 is not, 2000 is.
        assert_eq!(
            Date::from_ymd(1996, 3, 1).raw() - Date::from_ymd(1996, 2, 1).raw(),
            29
        );
        assert_eq!(
            Date::from_ymd(1900, 3, 1).raw() - Date::from_ymd(1900, 2, 1).raw(),
            28
        );
        assert_eq!(
            Date::from_ymd(2000, 3, 1).raw() - Date::from_ymd(2000, 2, 1).raw(),
            29
        );
    }
}
