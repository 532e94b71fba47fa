//! Randomized tests for the statistics toolkit, driven by the crate's own
//! deterministic [`SmallRng`].

use strata_stats::rng::SmallRng;
use strata_stats::{geomean, mean, ratio, Table};

fn rand_f64(rng: &mut SmallRng, lo: f64, hi: f64) -> f64 {
    let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    lo + unit * (hi - lo)
}

#[test]
fn geomean_is_bounded_by_min_and_max() {
    let mut rng = SmallRng::seed_from_u64(0x57A7_0001);
    for _ in 0..200 {
        let values: Vec<f64> = (0..rng.gen_range(1usize..50))
            .map(|_| rand_f64(&mut rng, 0.001, 1e6))
            .collect();
        let g = geomean(values.iter().copied()).expect("nonempty positive input");
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(0.0f64, f64::max);
        assert!(
            g >= min * 0.999_999 && g <= max * 1.000_001,
            "{min} <= {g} <= {max}"
        );
    }
}

#[test]
fn geomean_of_constant_is_constant() {
    let mut rng = SmallRng::seed_from_u64(0x57A7_0002);
    for _ in 0..200 {
        let v = rand_f64(&mut rng, 0.01, 1e4);
        let n = rng.gen_range(1usize..20);
        let g = geomean(std::iter::repeat_n(v, n)).unwrap();
        assert!((g - v).abs() / v < 1e-9);
    }
}

#[test]
fn mean_bounded() {
    let mut rng = SmallRng::seed_from_u64(0x57A7_0003);
    for _ in 0..200 {
        let values: Vec<f64> = (0..rng.gen_range(1usize..50))
            .map(|_| rand_f64(&mut rng, -1e6, 1e6))
            .collect();
        let m = mean(values.iter().copied()).unwrap();
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert!(m >= min - 1e-6 && m <= max + 1e-6);
    }
}

#[test]
fn ratio_never_nan() {
    let mut rng = SmallRng::seed_from_u64(0x57A7_0004);
    for _ in 0..1000 {
        let r = ratio(rng.next_u64(), rng.next_u64());
        assert!(!r.is_nan());
    }
    assert!(!ratio(0, 0).is_nan());
    assert!(!ratio(u64::MAX, 0).is_nan());
}

#[test]
fn table_csv_has_one_line_per_row() {
    let mut rng = SmallRng::seed_from_u64(0x57A7_0006);
    let alphabet: Vec<char> = "abcdefghijklmnopqrstuvwxyz0123456789,\"".chars().collect();
    for _ in 0..100 {
        let n_rows = rng.gen_range(0usize..20);
        let rows: Vec<Vec<String>> = (0..n_rows)
            .map(|_| {
                (0..2)
                    .map(|_| {
                        (0..rng.gen_range(0usize..9))
                            .map(|_| alphabet[rng.gen_range(0usize..alphabet.len())])
                            .collect::<String>()
                    })
                    .collect()
            })
            .collect();
        let mut t = Table::new("p", &["a", "b"]);
        for row in &rows {
            t.row(row.clone());
        }
        let csv = t.render_csv();
        // Header + one line per row; quoted cells never add raw newlines.
        assert_eq!(csv.lines().count(), rows.len() + 1);
        assert_eq!(t.len(), rows.len());
    }
}
