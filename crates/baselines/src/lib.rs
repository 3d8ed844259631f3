//! # dd-baselines — comparator methods for the TDL evaluation
//!
//! The four baselines the paper compares DeepDirect against (Sec. 6.1):
//!
//! * [`hf::HfLearner`] — handcrafted features (degrees, centralities, the 16
//!   directed triad counts) + logistic regression (Sec. 3),
//! * [`line::LineLearner`] — LINE node embedding with endpoint concatenation,
//! * [`redirect::RedirectNLearner`] — node-centroid semi-supervised ReDirect,
//! * [`redirect::RedirectTLearner`] — tie-centroid semi-supervised ReDirect.
//!
//! All learners implement [`traits::DirectionalityLearner`], producing a
//! [`traits::TieScorer`] whose `score(u, v)` is the directionality value
//! `d(u, v)`.

#![warn(missing_docs)]

pub mod hf;
pub mod line;
pub mod patterns;
pub mod redirect;
pub mod traits;

pub use hf::{HfConfig, HfLearner};
pub use line::{LineConfig, LineLearner};
pub use redirect::{RedirectNConfig, RedirectNLearner, RedirectTConfig, RedirectTLearner};
pub use traits::{DirectionalityLearner, FnScorer, TieScorer};
