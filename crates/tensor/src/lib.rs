//! Dense/sparse matrix math and reverse-mode automatic differentiation.
//!
//! No mature GNN or autodiff library exists in the sanctioned dependency
//! set, so this crate provides the numerical substrate for the `icnet` and
//! `regress` crates:
//!
//! * [`Matrix`] — a dense row-major `f64` matrix with the usual algebra;
//! * [`CsrMatrix`] — compressed sparse row matrices with sparse×dense
//!   products (circuit adjacency matrices are extremely sparse);
//! * [`Tape`] — a reverse-mode autodiff tape covering exactly the operator
//!   set the paper's models need (matmul, sparse matmul, ReLU, exp,
//!   softmax attention, reductions);
//! * [`linalg`] — direct solvers (Cholesky, Gaussian elimination) for the
//!   closed-form regression baselines;
//! * [`Adam`] / [`Sgd`] — optimizers ([the paper][crate] trains with ADAM);
//! * [`init`] — Xavier/Gaussian parameter initialization.
//!
//! # Example: differentiate a tiny network
//!
//! ```
//! use tensor::{Matrix, Tape};
//!
//! let x = Matrix::from_rows(&[&[1.0, 2.0]]);
//! let w = Matrix::from_rows(&[&[0.5], &[-0.25]]);
//! let mut tape = Tape::new();
//! let xv = tape.constant(x);
//! let wv = tape.leaf(w);
//! let h = tape.matmul(xv, wv);
//! let loss = tape.sum_all(h);
//! tape.backward(loss);
//! // dL/dW = x^T
//! assert_eq!(tape.grad(wv).get(0, 0), 1.0);
//! assert_eq!(tape.grad(wv).get(1, 0), 2.0);
//! ```

pub mod init;
pub mod linalg;
mod matrix;
mod optim;
mod pool;
mod segments;
mod sparse;
mod tape;

pub use matrix::Matrix;
pub use optim::{Adam, Optimizer, Sgd};
pub use pool::BufferPool;
pub use segments::Segments;
pub use sparse::CsrMatrix;
pub use tape::{Tape, VarId};
