//! Error types shared across the crate.

use crate::ckpt::CkptError;
use std::fmt;
use std::path::PathBuf;

/// Errors arising from constructing or mutating a [`crate::HostSwitchGraph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A switch id was out of range.
    SwitchOutOfRange {
        /// Offending switch id.
        switch: u32,
        /// Number of switches `m` in the graph.
        num_switches: u32,
    },
    /// A host id was out of range.
    HostOutOfRange {
        /// Offending host id.
        host: u32,
        /// Number of hosts `n` in the graph.
        num_hosts: u32,
    },
    /// Adding the edge/host would exceed the switch radix.
    RadixExceeded {
        /// Switch whose ports ran out.
        switch: u32,
        /// The radix `r`.
        radix: u32,
    },
    /// Self loops on switches are not allowed.
    SelfLoop {
        /// The switch both endpoints referred to.
        switch: u32,
    },
    /// The switch pair is already connected (multi-edges not allowed).
    DuplicateEdge {
        /// One endpoint.
        a: u32,
        /// The other endpoint.
        b: u32,
    },
    /// The requested edge does not exist.
    MissingEdge {
        /// One endpoint.
        a: u32,
        /// The other endpoint.
        b: u32,
    },
    /// The host is not attached to the given switch.
    HostNotOnSwitch {
        /// The host in question.
        host: u32,
        /// The switch it was expected on.
        switch: u32,
    },
    /// The switch has no hosts to detach.
    NoHostToDetach {
        /// The empty switch.
        switch: u32,
    },
    /// Parameters do not satisfy a required constraint.
    InvalidParameters(String),
    /// The graph is not connected (some host pair is unreachable).
    Disconnected,
    /// Randomized construction failed to produce a valid graph.
    ConstructionFailed(String),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::SwitchOutOfRange {
                switch,
                num_switches,
            } => {
                write!(f, "switch {switch} out of range (m = {num_switches})")
            }
            Self::HostOutOfRange { host, num_hosts } => {
                write!(f, "host {host} out of range (n = {num_hosts})")
            }
            Self::RadixExceeded { switch, radix } => {
                write!(f, "switch {switch} has no free port (radix {radix})")
            }
            Self::SelfLoop { switch } => write!(f, "self loop on switch {switch}"),
            Self::DuplicateEdge { a, b } => write!(f, "edge {{{a},{b}}} already exists"),
            Self::MissingEdge { a, b } => write!(f, "edge {{{a},{b}}} does not exist"),
            Self::HostNotOnSwitch { host, switch } => {
                write!(f, "host {host} is not attached to switch {switch}")
            }
            Self::NoHostToDetach { switch } => {
                write!(f, "switch {switch} has no attached host")
            }
            Self::InvalidParameters(msg) => write!(f, "invalid parameters: {msg}"),
            Self::Disconnected => write!(f, "graph is not connected"),
            Self::ConstructionFailed(msg) => write!(f, "construction failed: {msg}"),
        }
    }
}

impl std::error::Error for GraphError {}

/// Errors from running the simulated-annealing search.
///
/// Wraps [`GraphError`] (the historical failure mode — e.g. a
/// disconnected start graph) and adds the robustness layer's structured
/// failures: broken move invariants, checkpoint I/O and watchdog stalls.
/// `Clone + PartialEq` so results containing it stay comparable in
/// tests and the facade error.
#[derive(Debug, Clone, PartialEq)]
pub enum SaError {
    /// The underlying graph/search operation failed.
    Graph(GraphError),
    /// A sampled move failed to apply — an internal invariant of the
    /// sampler/search-state pair broke. Formerly a panic; now carries
    /// enough context to diagnose the break from the error alone.
    InvariantBroken {
        /// Which move application broke (e.g. `"swap"`, `"swing"`).
        what: &'static str,
        /// Iteration at which it broke.
        iter: u64,
        /// The graph-level error the application returned.
        source: GraphError,
    },
    /// Checkpoint save/load failed or the file was invalid.
    Ckpt(CkptError),
    /// A resumed checkpoint holds another instance than the run asks
    /// for.
    InstanceMismatch {
        /// `(hosts, switches, radix)` the run asks for.
        expected: (u32, u32, u32),
        /// `(hosts, switches, radix)` of the checkpoint's graph.
        found: (u32, u32, u32),
    },
    /// The watchdog saw no progress within its window,
    /// force-checkpointed (if a checkpoint path was configured), and
    /// aborted the run resumably instead of hanging forever.
    Stalled {
        /// The watchdog window in wall-clock seconds.
        window_secs: f64,
        /// Iteration the run had reached when the stall was detected.
        iter: u64,
        /// Where the force-checkpoint was written, if anywhere.
        checkpoint: Option<PathBuf>,
    },
}

impl fmt::Display for SaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Graph(e) => write!(f, "{e}"),
            Self::InvariantBroken { what, iter, source } => write!(
                f,
                "internal invariant broken at iteration {iter}: sampled {what} failed to \
                 apply: {source}"
            ),
            Self::Ckpt(e) => write!(f, "{e}"),
            Self::InstanceMismatch { expected, found } => write!(
                f,
                "checkpoint holds {} hosts on {} switches of radix {}, but the run asks \
                 for {} hosts on {} switches of radix {}",
                found.0, found.1, found.2, expected.0, expected.1, expected.2
            ),
            Self::Stalled {
                window_secs,
                iter,
                checkpoint,
            } => {
                write!(
                    f,
                    "no progress for {window_secs} s (stalled at iteration {iter})"
                )?;
                match checkpoint {
                    Some(p) => write!(
                        f,
                        "; state checkpointed to {} — resume from it",
                        p.display()
                    ),
                    None => write!(f, "; no checkpoint path configured"),
                }
            }
        }
    }
}

impl std::error::Error for SaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Graph(e) | Self::InvariantBroken { source: e, .. } => Some(e),
            Self::Ckpt(e) => Some(e),
            Self::InstanceMismatch { .. } | Self::Stalled { .. } => None,
        }
    }
}

impl From<GraphError> for SaError {
    fn from(e: GraphError) -> Self {
        Self::Graph(e)
    }
}

impl From<CkptError> for SaError {
    fn from(e: CkptError) -> Self {
        Self::Ckpt(e)
    }
}

/// Errors from parsing the textual graph format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The header line was malformed or missing.
    BadHeader(String),
    /// A line could not be parsed.
    BadLine {
        /// 1-based line number.
        line_no: usize,
        /// The raw line.
        content: String,
    },
    /// The parsed graph violates an invariant.
    Graph(GraphError),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadHeader(h) => write!(f, "bad header: {h}"),
            Self::BadLine { line_no, content } => {
                write!(f, "cannot parse line {line_no}: {content:?}")
            }
            Self::Graph(e) => write!(f, "invalid graph: {e}"),
        }
    }
}

impl std::error::Error for ParseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for ParseError {
    fn from(e: GraphError) -> Self {
        Self::Graph(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_mention_ids() {
        let e = GraphError::SwitchOutOfRange {
            switch: 7,
            num_switches: 4,
        };
        assert!(e.to_string().contains('7'));
        let e = GraphError::DuplicateEdge { a: 1, b: 2 };
        assert!(e.to_string().contains("{1,2}"));
    }

    #[test]
    fn parse_error_wraps_graph_error() {
        let pe: ParseError = GraphError::Disconnected.into();
        assert_eq!(pe, ParseError::Graph(GraphError::Disconnected));
        use std::error::Error;
        assert!(pe.source().is_some());
    }
}
