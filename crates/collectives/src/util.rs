//! Shared helpers for counts/displacements arithmetic.

/// Exclusive prefix sums of `counts` — the standard MPI displacement
/// vector.
pub fn displs_of(counts: &[usize]) -> Vec<usize> {
    let mut d = Vec::with_capacity(counts.len());
    let mut acc = 0;
    for &c in counts {
        d.push(acc);
        acc += c;
    }
    d
}

/// Split `len` elements into `p` balanced segments (remainder spread over
/// the lowest indices).
pub fn segment_counts(len: usize, p: usize) -> Vec<usize> {
    let base = len / p;
    let rem = len % p;
    (0..p).map(|i| base + usize::from(i < rem)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displs_are_exclusive_prefix_sums() {
        assert_eq!(displs_of(&[2, 0, 3, 1]), vec![0, 2, 2, 5]);
        assert_eq!(displs_of(&[]), Vec::<usize>::new());
    }

    #[test]
    fn segments_sum_to_len_and_are_balanced() {
        for len in [0usize, 1, 9, 16, 100] {
            for p in [1usize, 2, 3, 7] {
                let c = segment_counts(len, p);
                assert_eq!(c.iter().sum::<usize>(), len);
                assert!(c.iter().max().unwrap() - c.iter().min().unwrap() <= 1);
            }
        }
    }
}
