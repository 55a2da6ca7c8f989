//! Typed errors of the execution engine.
//!
//! The serving contract (DESIGN.md §10) is that a fault inside a kernel
//! task is *contained*: it surfaces to the caller as a value, the pool
//! stays serviceable, and the next batch runs clean. [`ExecError`] is that
//! value — a shape mismatch or a value store the matrix does not hold,
//! detected before any work was dispatched, or a panic caught on whichever
//! thread ran the offending task.

use rtm_sparse::{KernelError, Precision};
use rtm_tensor::ShapeError;
use std::error::Error;
use std::fmt;

/// Error returned by [`Executor`](crate::Executor) and
/// [`WorkerPool`](crate::WorkerPool) entry points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// Operand shapes disagree; nothing was dispatched and no output byte
    /// was written.
    Shape(ShapeError),
    /// The matrix — or a compiled layer — holds no value store at this
    /// precision; nothing was dispatched and no output byte was written.
    NotHeld(Precision),
    /// A task panicked while the batch ran. The batch fully drained before
    /// this was returned (no task is left running against caller memory),
    /// the pool remains serviceable, and any output buffer the batch was
    /// writing holds unspecified — but initialized — data.
    WorkerPanicked {
        /// Payload of the first panic observed in the batch.
        message: String,
    },
}

impl ExecError {
    /// Shorthand for a [`ShapeError`] wrapped in [`ExecError::Shape`].
    pub(crate) fn shape(op: &'static str, lhs: (usize, usize), rhs: (usize, usize)) -> ExecError {
        ExecError::Shape(ShapeError { op, lhs, rhs })
    }

    /// True when the error came from a contained task panic.
    pub fn is_panic(&self) -> bool {
        matches!(self, ExecError::WorkerPanicked { .. })
    }
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Shape(e) => write!(f, "{e}"),
            ExecError::NotHeld(p) => write!(f, "no {} value store is held", p.tag()),
            ExecError::WorkerPanicked { message } => {
                write!(f, "worker task panicked: {message}")
            }
        }
    }
}

impl Error for ExecError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ExecError::Shape(e) => Some(e),
            ExecError::NotHeld(_) | ExecError::WorkerPanicked { .. } => None,
        }
    }
}

impl From<ShapeError> for ExecError {
    fn from(e: ShapeError) -> ExecError {
        ExecError::Shape(e)
    }
}

impl From<KernelError> for ExecError {
    fn from(e: KernelError) -> ExecError {
        match e {
            KernelError::Shape(e) => ExecError::Shape(e),
            KernelError::NotHeld(p) => ExecError::NotHeld(p),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let s = ExecError::shape("op", (2, 3), (4, 5));
        assert!(format!("{s}").contains("op"));
        assert!(Error::source(&s).is_some());
        assert!(!s.is_panic());
        let p = ExecError::WorkerPanicked {
            message: "boom".into(),
        };
        assert!(format!("{p}").contains("boom"));
        assert!(Error::source(&p).is_none());
        assert!(p.is_panic());
    }

    #[test]
    fn shape_error_converts() {
        let e: ExecError = ShapeError {
            op: "x",
            lhs: (1, 1),
            rhs: (2, 2),
        }
        .into();
        assert!(matches!(e, ExecError::Shape(_)));
    }
}
