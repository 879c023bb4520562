use crate::QFormat;
use tie_tensor::{Result, Scalar, Shape, Tensor, TensorError};

/// A tensor of 16-bit fixed-point codes with a shared [`QFormat`].
///
/// This is the storage format of everything inside the TIE datapath:
/// unfolded tensor cores in the weight SRAM and intermediate `V_h`
/// matrices in the working SRAMs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QTensor {
    shape: Shape,
    data: Vec<i16>,
    format: QFormat,
}

impl QTensor {
    /// Quantizes a real tensor (round-to-nearest, saturating).
    pub fn quantize<T: Scalar>(t: &Tensor<T>, format: QFormat) -> Self {
        // Widen through a small stack buffer so the quantize loop runs on
        // f64 slices without a second heap copy of the tensor.
        let mut data = vec![0i16; t.data().len()];
        let mut reals = [0.0f64; 256];
        for (src, dst) in t.data().chunks(256).zip(data.chunks_mut(256)) {
            let reals = &mut reals[..src.len()];
            for (r, v) in reals.iter_mut().zip(src) {
                *r = v.to_f64();
            }
            format.quantize_into(reals, dst);
        }
        QTensor {
            shape: t.shape().clone(),
            data,
            format,
        }
    }

    /// Quantizes with a format calibrated to the tensor's own max-abs.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] for an all-zero tensor
    /// (calibration is undefined); quantize such tensors with an explicit
    /// format instead.
    pub fn quantize_calibrated<T: Scalar>(t: &Tensor<T>) -> Result<Self> {
        let fmt = QFormat::calibrate(t.max_abs())?;
        Ok(Self::quantize(t, fmt))
    }

    /// Wraps raw codes.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ElementCountMismatch`] on a length mismatch.
    pub fn from_codes(dims: Vec<usize>, data: Vec<i16>, format: QFormat) -> Result<Self> {
        let shape = Shape::new(dims)?;
        if shape.num_elements() != data.len() {
            return Err(TensorError::ElementCountMismatch {
                expected: shape.num_elements(),
                got: data.len(),
            });
        }
        Ok(QTensor {
            shape,
            data,
            format,
        })
    }

    /// The tensor shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The raw 16-bit codes.
    pub fn codes(&self) -> &[i16] {
        &self.data
    }

    /// The quantization format.
    pub fn format(&self) -> QFormat {
        self.format
    }

    /// Number of elements.
    pub fn num_elements(&self) -> usize {
        self.data.len()
    }

    /// Storage footprint in bytes (2 bytes per code).
    pub fn bytes(&self) -> usize {
        self.data.len() * 2
    }

    /// Converts back to a real tensor.
    pub fn dequantize(&self) -> Tensor<f64> {
        let mut reals = vec![0.0f64; self.data.len()];
        self.format.dequantize_into(&self.data, &mut reals);
        Tensor::from_vec(self.shape.dims().to_vec(), reals)
            .expect("shape matches data by construction")
    }

    /// Code at a flat offset.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is out of range.
    pub fn code_at(&self, offset: usize) -> i16 {
        self.data[offset]
    }

    /// Fraction of codes pinned at the saturation bounds.
    pub fn saturation_fraction(&self) -> f64 {
        let sat = self
            .data
            .iter()
            .filter(|&&q| q == i16::MAX || q == i16::MIN)
            .count();
        sat as f64 / self.data.len().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantize_dequantize_error_bounded_by_half_step() {
        let t =
            Tensor::<f64>::from_vec(vec![2, 3], vec![0.1, -0.2, 0.33, 1.5, -2.75, 3.1]).unwrap();
        let fmt = QFormat::new(12).unwrap();
        let q = QTensor::quantize(&t, fmt);
        let back = q.dequantize();
        assert!(back.approx_eq(&t, fmt.step() / 2.0 + 1e-12));
        assert_eq!(q.bytes(), 12);
    }

    #[test]
    fn calibrated_quantization_never_saturates() {
        let t = Tensor::<f64>::from_vec(vec![3], vec![100.0, -250.0, 3.0]).unwrap();
        let q = QTensor::quantize_calibrated(&t).unwrap();
        assert_eq!(q.saturation_fraction(), 0.0);
        assert!(q.dequantize().approx_eq(&t, q.format().step() / 2.0 + 1e-9));
        let zero = Tensor::<f64>::zeros(vec![2]);
        assert!(QTensor::quantize_calibrated(&zero).is_err());
    }

    #[test]
    fn from_codes_validates_length() {
        let fmt = QFormat::default();
        assert!(QTensor::from_codes(vec![2, 2], vec![0; 3], fmt).is_err());
        let q = QTensor::from_codes(vec![2, 2], vec![1, 2, 3, 4], fmt).unwrap();
        assert_eq!(q.code_at(3), 4);
        assert_eq!(q.num_elements(), 4);
    }

    #[test]
    fn saturation_fraction_counts_pinned_codes() {
        let fmt = QFormat::new(12).unwrap(); // range ±8
        let t = Tensor::<f64>::from_vec(vec![4], vec![100.0, -100.0, 1.0, 2.0]).unwrap();
        let q = QTensor::quantize(&t, fmt);
        assert_eq!(q.saturation_fraction(), 0.5);
    }
}
