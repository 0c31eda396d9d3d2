//! BLAS-1 vector operations used by the nonlinear solver and time
//! integrator (the "vector operations" the paper's conclusion flags as the
//! next optimization target).

/// `y ← a x + y`.
pub fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len());
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += a * xi;
    }
}

/// Euclidean norm.
pub fn norm2(x: &[f64]) -> f64 {
    x.iter().map(|v| v * v).sum::<f64>().sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axpy_and_norm2() {
        let x = vec![1.0, 2.0, 3.0];
        let mut y = vec![1.0, 1.0, 1.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, vec![3.0, 5.0, 7.0]);
        assert!((norm2(&x) - 14.0f64.sqrt()).abs() < 1e-15);
    }
}
