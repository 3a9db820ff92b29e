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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displs_are_exclusive_prefix_sums() {
        assert_eq!(displs_of(&[2, 0, 3, 1]), vec![0, 2, 2, 5]);
        assert_eq!(displs_of(&[]), Vec::<usize>::new());
    }
}
