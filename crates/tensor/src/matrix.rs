//! Row-major dense `f32` matrix.

use crate::{Result, TensorError};
use serde::{de, DeError, Deserialize, Serialize, Value};
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major matrix of `f32` values.
///
/// This is the only tensor type the DaCapo DNN substrate needs: every layer
/// is lowered to matrix multiplications over 2-D operands (batches are rows).
///
/// # Examples
///
/// ```
/// use dacapo_tensor::Matrix;
///
/// # fn main() -> Result<(), dacapo_tensor::TensorError> {
/// let mut m = Matrix::zeros(2, 3)?;
/// m[(0, 1)] = 5.0;
/// assert_eq!(m.get(0, 1), Some(5.0));
/// assert_eq!(m.shape(), (2, 3));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

/// Deserialises through [`Matrix::from_vec`], so a decoded matrix holds what
/// a constructed one does — positive dimensions and exactly `rows × cols`
/// elements — which is what lets the kernels slice `data` by shape.
impl Deserialize for Matrix {
    fn from_value(value: &Value) -> std::result::Result<Self, DeError> {
        let rows: usize = de::field(value, "Matrix", "rows")?;
        let cols: usize = de::field(value, "Matrix", "cols")?;
        let data: Vec<f32> = de::field(value, "Matrix", "data")?;
        if rows.checked_mul(cols).is_none() {
            return Err(DeError::new(format!("Matrix: {rows} × {cols} elements overflow")));
        }
        Self::from_vec(rows, cols, data).map_err(|e| DeError::new(format!("Matrix: {e}")))
    }
}

impl Matrix {
    /// Creates a matrix of zeros.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidDimension`] if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Result<Self> {
        if rows == 0 || cols == 0 {
            return Err(TensorError::InvalidDimension { rows, cols });
        }
        Ok(Self { rows, cols, data: vec![0.0; rows * cols] })
    }

    /// Creates a matrix filled with a constant value.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidDimension`] if either dimension is zero.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Result<Self> {
        let mut m = Self::zeros(rows, cols)?;
        m.data.fill(value);
        Ok(m)
    }

    /// Creates the `n`×`n` identity matrix.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        assert!(n > 0, "identity matrix dimension must be positive");
        let mut m = Self::zeros(n, n).expect("n > 0 was just checked");
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidDimension`] for zero dimensions and
    /// [`TensorError::DataLengthMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self> {
        if rows == 0 || cols == 0 {
            return Err(TensorError::InvalidDimension { rows, cols });
        }
        if data.len() != rows * cols {
            return Err(TensorError::DataLengthMismatch { expected: rows * cols, got: data.len() });
        }
        Ok(Self { rows, cols, data })
    }

    /// Creates a matrix from a slice of equally sized rows.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidDimension`] for an empty slice or empty
    /// rows, and [`TensorError::DataLengthMismatch`] if the rows have unequal
    /// lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Result<Self> {
        if rows.is_empty() || rows[0].is_empty() {
            return Err(TensorError::InvalidDimension { rows: rows.len(), cols: 0 });
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            if row.len() != cols {
                return Err(TensorError::DataLengthMismatch { expected: cols, got: row.len() });
            }
            data.extend_from_slice(row);
        }
        Ok(Self { rows: rows.len(), cols, data })
    }

    /// Creates a matrix by evaluating `f(row, col)` at every position.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidDimension`] if either dimension is zero.
    pub fn from_fn(
        rows: usize,
        cols: usize,
        mut f: impl FnMut(usize, usize) -> f32,
    ) -> Result<Self> {
        let mut m = Self::zeros(rows, cols)?;
        for r in 0..rows {
            for c in 0..cols {
                m.data[r * cols + c] = f(r, c);
            }
        }
        Ok(m)
    }

    /// Resizes the matrix to `rows`×`cols`, reusing the backing storage and
    /// leaving the contents unspecified (whatever earlier use left there,
    /// zeros where the storage grew) — for an output its caller then
    /// overwrites in full, as every `*_into` kernel does.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidDimension`] if either dimension is zero.
    pub fn resize_for_overwrite(&mut self, rows: usize, cols: usize) -> Result<()> {
        if rows == 0 || cols == 0 {
            return Err(TensorError::InvalidDimension { rows, cols });
        }
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
        Ok(())
    }

    /// [`Matrix::resize_for_overwrite`], then zero-fills: the reset of an
    /// output that accumulates.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidDimension`] if either dimension is zero.
    pub fn reset_to(&mut self, rows: usize, cols: usize) -> Result<()> {
        self.resize_for_overwrite(rows, cols)?;
        self.data.fill(0.0);
        Ok(())
    }

    /// Resizes the matrix to match the shape of `rows` and copies them in,
    /// reusing the backing storage (the reusable counterpart of
    /// [`Matrix::from_rows`]).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidDimension`] for an empty slice or empty
    /// rows, and [`TensorError::DataLengthMismatch`] if the rows have
    /// unequal lengths.
    pub fn copy_rows_from(&mut self, rows: &[&[f32]]) -> Result<()> {
        if rows.is_empty() || rows[0].is_empty() {
            return Err(TensorError::InvalidDimension { rows: rows.len(), cols: 0 });
        }
        let cols = rows[0].len();
        // Validate before mutating so a failed copy leaves the matrix intact.
        if let Some(bad) = rows.iter().find(|row| row.len() != cols) {
            return Err(TensorError::DataLengthMismatch { expected: cols, got: bad.len() });
        }
        self.data.clear();
        self.data.reserve(rows.len() * cols);
        for row in rows {
            self.data.extend_from_slice(row);
        }
        self.rows = rows.len();
        self.cols = cols;
        Ok(())
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    #[must_use]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Number of elements the backing storage holds without reallocating —
    /// at least [`Matrix::len`]; what a reused scratch matrix has grown to.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Whether the matrix holds no elements (never true for constructed
    /// matrices, which always have positive dimensions).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Returns the element at `(row, col)`, or `None` if out of bounds.
    #[must_use]
    pub fn get(&self, row: usize, col: usize) -> Option<f32> {
        if row < self.rows && col < self.cols {
            Some(self.data[row * self.cols + col])
        } else {
            None
        }
    }

    /// Sets the element at `(row, col)`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if the position is invalid.
    pub fn set(&mut self, row: usize, col: usize, value: f32) -> Result<()> {
        if row >= self.rows || col >= self.cols {
            return Err(TensorError::IndexOutOfBounds { row, col, shape: self.shape() });
        }
        self.data[row * self.cols + col] = value;
        Ok(())
    }

    /// Borrows one row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    #[must_use]
    pub fn row(&self, row: usize) -> &[f32] {
        assert!(row < self.rows, "row {row} out of bounds for {} rows", self.rows);
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Mutably borrows one row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    pub fn row_mut(&mut self, row: usize) -> &mut [f32] {
        assert!(row < self.rows, "row {row} out of bounds for {} rows", self.rows);
        &mut self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Copies one column into a freshly allocated vector.
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of bounds.
    #[must_use]
    pub fn col(&self, col: usize) -> Vec<f32> {
        assert!(col < self.cols, "column {col} out of bounds for {} columns", self.cols);
        (0..self.rows).map(|r| self.data[r * self.cols + col]).collect()
    }

    /// The underlying row-major data slice.
    #[must_use]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The underlying row-major data slice, mutably.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Iterator over rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks(self.cols)
    }

    /// Returns a new matrix with `f` applied to every element.
    #[must_use]
    pub fn map(&self, mut f: impl FnMut(f32) -> f32) -> Self {
        let mut out = self.clone();
        for v in &mut out.data {
            *v = f(*v);
        }
        out
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;

    fn index(&self, (row, col): (usize, usize)) -> &f32 {
        assert!(row < self.rows && col < self.cols, "index ({row}, {col}) out of bounds");
        &self.data[row * self.cols + col]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (row, col): (usize, usize)) -> &mut f32 {
        assert!(row < self.rows && col < self.cols, "index ({row}, {col}) out of bounds");
        &mut self.data[row * self.cols + col]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for row in self.iter_rows().take(8) {
            write!(f, "  [")?;
            for (i, v) in row.iter().take(8).enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{v:.4}")?;
            }
            if row.len() > 8 {
                write!(f, ", ...")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_correct_shape_and_content() {
        let m = Matrix::zeros(3, 4).unwrap();
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
        assert!(!m.is_empty());
    }

    #[test]
    fn zero_dimensions_are_rejected() {
        assert!(matches!(Matrix::zeros(0, 4), Err(TensorError::InvalidDimension { .. })));
        assert!(matches!(Matrix::zeros(4, 0), Err(TensorError::InvalidDimension { .. })));
        assert!(matches!(
            Matrix::from_vec(0, 0, vec![]),
            Err(TensorError::InvalidDimension { .. })
        ));
        let mut reused = Matrix::filled(4, 8, 5.0).unwrap();
        assert!(matches!(reused.reset_to(0, 3), Err(TensorError::InvalidDimension { .. })));
        assert_eq!(reused, Matrix::filled(4, 8, 5.0).unwrap(), "a failed reset changes nothing");
        reused.reset_to(2, 3).unwrap();
        assert_eq!(reused, Matrix::zeros(2, 3).unwrap(), "a reused matrix comes back zeroed");
    }

    #[test]
    fn deserialising_rejects_what_the_constructors_reject() {
        let encoded = |rows: u64, cols: u64, len: usize| {
            Value::Object(vec![
                ("rows".into(), Value::UInt(rows)),
                ("cols".into(), Value::UInt(cols)),
                ("data".into(), Value::Array(vec![Value::Float(1.0); len])),
            ])
        };
        let m = Matrix::filled(2, 3, 1.0).unwrap();
        assert_eq!(m.to_value(), encoded(2, 3, 6));
        assert_eq!(Matrix::from_value(&encoded(2, 3, 6)).unwrap(), m);
        // Shape and storage disagree: `ops::matmul` would slice out of bounds.
        for (rows, cols, len) in [(4, 4, 1), (2, 3, 7), (1, 1, 0)] {
            let err = Matrix::from_value(&encoded(rows, cols, len)).unwrap_err().to_string();
            assert!(err.contains("data length mismatch"), "{rows}x{cols}/{len}: {err}");
        }
        for (rows, cols) in [(0, 0), (0, 3), (3, 0)] {
            let err = Matrix::from_value(&encoded(rows, cols, 0)).unwrap_err().to_string();
            assert!(err.contains("invalid matrix dimension"), "{rows}x{cols}: {err}");
        }
        let err = Matrix::from_value(&encoded(u64::MAX, 2, 2)).unwrap_err().to_string();
        assert!(err.contains("overflow"), "{err}");
        assert!(Matrix::from_value(&Value::Array(vec![])).is_err());
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(matches!(
            Matrix::from_vec(2, 3, vec![1.0; 5]),
            Err(TensorError::DataLengthMismatch { expected: 6, got: 5 })
        ));
        let m = Matrix::from_vec(2, 3, (0..6).map(|i| i as f32).collect()).unwrap();
        assert_eq!(m[(1, 2)], 5.0);
    }

    #[test]
    fn from_rows_validates_uniform_row_length() {
        let r1 = [1.0f32, 2.0];
        let r2 = [3.0f32];
        assert!(Matrix::from_rows(&[&r1, &r2]).is_err());
        let m = Matrix::from_rows(&[&r1, &r1]).unwrap();
        assert_eq!(m.shape(), (2, 2));
    }

    #[test]
    fn identity_has_unit_diagonal() {
        let m = Matrix::identity(4);
        for r in 0..4 {
            for c in 0..4 {
                assert_eq!(m[(r, c)], if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_fn_evaluates_every_position() {
        let m = Matrix::from_fn(3, 2, |r, c| (r * 10 + c) as f32).unwrap();
        assert_eq!(m[(2, 1)], 21.0);
        assert_eq!(m[(0, 0)], 0.0);
    }

    #[test]
    fn get_and_set_respect_bounds() {
        let mut m = Matrix::zeros(2, 2).unwrap();
        assert_eq!(m.get(2, 0), None);
        assert!(m.set(0, 5, 1.0).is_err());
        m.set(1, 1, 7.0).unwrap();
        assert_eq!(m.get(1, 1), Some(7.0));
    }

    #[test]
    fn row_and_col_accessors() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.col(2), vec![3.0, 6.0]);
        assert_eq!(m.iter_rows().count(), 2);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn row_panics_out_of_bounds() {
        let m = Matrix::zeros(2, 2).unwrap();
        let _ = m.row(2);
    }

    #[test]
    fn map_applies_its_function_to_every_element() {
        let m = Matrix::from_vec(2, 2, vec![1.0, -2.0, 3.0, -4.0]).unwrap();
        let mapped = m.map(|v| v.abs());
        assert_eq!(mapped.shape(), (2, 2));
        assert_eq!(mapped.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn display_is_never_empty() {
        let m = Matrix::zeros(1, 1).unwrap();
        assert!(!format!("{m}").is_empty());
        let big = Matrix::zeros(20, 20).unwrap();
        assert!(format!("{big}").contains("..."));
    }
}
