use std::fmt;

use blurnet_tensor::TensorError;

/// Errors produced by the neural-network framework.
#[derive(Debug, Clone, PartialEq)]
pub enum NnError {
    /// An underlying tensor operation failed.
    Tensor(TensorError),
    /// A backward pass found no forward record for a layer in its tape.
    MissingForwardCache(String),
    /// A configuration value was invalid (layer sizes, hyper-parameters, …).
    BadConfig(String),
    /// Labels and logits disagree in batch size, or a label is out of range.
    BadLabels(String),
    /// (De)serialization of a network failed.
    Serialization(String),
}

impl fmt::Display for NnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NnError::Tensor(e) => write!(f, "tensor error: {e}"),
            NnError::MissingForwardCache(layer) => {
                write!(f, "backward called before forward on layer {layer}")
            }
            NnError::BadConfig(msg) => write!(f, "bad configuration: {msg}"),
            NnError::BadLabels(msg) => write!(f, "bad labels: {msg}"),
            NnError::Serialization(msg) => write!(f, "serialization error: {msg}"),
        }
    }
}

impl std::error::Error for NnError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NnError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for NnError {
    fn from(e: TensorError) -> Self {
        NnError::Tensor(e)
    }
}
