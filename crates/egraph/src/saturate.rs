//! Saturation: match the Ω rules against every e-class, instantiate the
//! right-hand sides, union, rebuild — until nothing new merges or the
//! budgets run out.
//!
//! Matching is structural backtracking over an obligation stack. A
//! majority pattern matches an e-class by trying every live e-node of
//! the class under **all six child permutations** (stored triples are
//! sorted, patterns are written in axiom order, and majority is fully
//! symmetric), and in **either polarity**: an e-node holding `¬class`
//! serves a positive obligation through its dual (self-duality again).
//! Variable obligations bind first-come and fail on conflicting
//! re-binds, which is what makes shared-variable rules like Ω.D
//! selective.
//!
//! A round streams matches straight into rule application. Right after
//! `rebuild`, the round takes a [`Snapshot`] of every class's e-nodes
//! (their child triples and stored polarities), and the matcher reads
//! only that. Each complete binding goes to an `emit` callback that
//! instantiates the rule's rhs and unions it with the matched class on
//! the spot, and matching stops as soon as applying stops. The round
//! ends at the first of three events: `match_cap` bindings consumed,
//! the live e-node count reaching `max_nodes` before an instantiation,
//! or the class × rule enumeration running out.
//!
//! Streaming is exact: it applies the same bindings in the same order as
//! collecting a round's matches first and applying them afterwards.
//! Between two rebuilds, `add` only appends e-nodes and `union` only
//! touches the union-find and the live class lists; neither edits an
//! e-node the snapshot already holds. So the snapshot yields exactly the
//! binding stream an up-front collection would have listed, and the
//! stream is consumed under the same cap and node-budget checks.
//!
//! Everything iterates in deterministic order — rules as listed, classes
//! by ascending id, e-nodes in insertion order, permutations in a fixed
//! table — so a saturation run is a pure function of the input graph and
//! budgets. Budgets bound the blow-up: `max_nodes` stops rule
//! application once the e-graph holds that many live e-nodes (the
//! expanding Ω.D direction grows fast), `max_iters` bounds the
//! match/apply/rebuild rounds, and the match cap, a count of bindings
//! consumed, bounds one round's work in proportion to the node budget.

use std::ops::ControlFlow;

use rlim_mig::rewrite::rules::{Pattern, RewriteRule, MAX_VARS};
use rlim_mig::{NodeId, Signal};

use crate::graph::EGraph;

/// Saturation budgets. Defaults are deliberately modest: enough to
/// close small graphs, a bounded exploration on large ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    /// Stop applying rules once this many live e-nodes exist. The check
    /// runs before each rule instantiation, and one instantiation adds
    /// at most `R` e-nodes, where `R` is the most majorities in any
    /// rule's rhs (3 for the Ω rules, from Ω.D left-to-right). A run
    /// therefore ends with at most `max(initial, max_nodes + R − 1)`
    /// live e-nodes.
    pub max_nodes: usize,
    /// Maximum match/apply/rebuild rounds.
    pub max_iters: usize,
}

impl Default for Budget {
    fn default() -> Self {
        Budget {
            max_nodes: 50_000,
            max_iters: 4,
        }
    }
}

/// Why a saturation run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StopReason {
    /// The last round merged nothing: no rule produced a new union.
    Saturated,
    /// The node budget cut the last round short, or was already met
    /// before the next round could start.
    NodeBudget,
    /// The last round enumerated every match and merged something, and
    /// no rounds were left. A run with `max_iters == 0` also ends here.
    #[default]
    IterBudget,
    /// The last round consumed the match cap before its enumeration ran
    /// out, and no rounds were left.
    MatchCap,
}

/// What a saturation run did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SaturationReport {
    /// Rounds executed.
    pub iterations: usize,
    /// Class merges performed in total.
    pub unions: usize,
    /// Live e-nodes at the end.
    pub enodes: usize,
    /// True when the run stopped because no rule produced a new merge
    /// (a genuine fixed point), false when a budget cut it off. Equals
    /// `stop == StopReason::Saturated`.
    pub saturated: bool,
    /// Why the run ended.
    pub stop: StopReason,
}

/// A variable binding: signals by variable index.
type Binding = [Option<Signal>; MAX_VARS];

/// The six permutations of three children.
const PERMS: [[usize; 3]; 6] = [
    [0, 1, 2],
    [0, 2, 1],
    [1, 0, 2],
    [1, 2, 0],
    [2, 0, 1],
    [2, 1, 0],
];

/// Every class's live e-nodes as of the last `rebuild`, flattened: class
/// `c` owns `members[start[c]..start[c + 1]]`, each entry an e-node's
/// child triple and whether it holds its class complemented.
#[derive(Debug, Default)]
struct Snapshot {
    start: Vec<usize>,
    members: Vec<([Signal; 3], bool)>,
}

impl Snapshot {
    /// Refills the snapshot from `eg`, reusing its buffers.
    fn take(&mut self, eg: &EGraph) {
        self.start.clear();
        self.members.clear();
        self.start.push(0);
        for list in &eg.class_nodes {
            self.members.extend(list.iter().map(|e| {
                let e = e.index();
                (eg.nodes[e], eg.node_class[e].is_complement())
            }));
            self.start.push(self.members.len());
        }
    }

    fn num_classes(&self) -> usize {
        self.start.len() - 1
    }

    fn class(&self, cls: usize) -> &[([Signal; 3], bool)] {
        &self.members[self.start[cls]..self.start[cls + 1]]
    }
}

/// Matches the obligations against `snap`, extending `binding`, and
/// hands each complete binding to `emit`. Stops at the first `Break`
/// from `emit` and returns it; the obligation stack and `binding` are
/// left mid-search then.
fn match_class<B>(
    snap: &Snapshot,
    obligations: &mut Vec<(&Pattern, Signal)>,
    binding: &mut Binding,
    emit: &mut impl FnMut(&Binding) -> ControlFlow<B>,
) -> ControlFlow<B> {
    let Some((pattern, target)) = obligations.pop() else {
        return emit(binding);
    };
    match pattern {
        Pattern::Var { var, complement } => {
            let want = target.complement_if(*complement);
            let v = *var as usize;
            match binding[v] {
                Some(bound) if bound == want => match_class(snap, obligations, binding, emit)?,
                Some(_) => {}
                None => {
                    binding[v] = Some(want);
                    match_class(snap, obligations, binding, emit)?;
                    binding[v] = None;
                }
            }
        }
        Pattern::Maj {
            children,
            complement,
        } => {
            let want = target.complement_if(*complement);
            for &(tri, polarity) in snap.class(want.node().index()) {
                // The e-node computes its class xor its stored polarity;
                // serving `want` may require the dual spelling.
                let dual = polarity ^ want.is_complement();
                let t = [
                    tri[0].complement_if(dual),
                    tri[1].complement_if(dual),
                    tri[2].complement_if(dual),
                ];
                for perm in &PERMS {
                    for k in 0..3 {
                        obligations.push((&children[k], t[perm[k]]));
                    }
                    match_class(snap, obligations, binding, emit)?;
                    obligations.truncate(obligations.len() - 3);
                }
            }
        }
    }
    obligations.push((pattern, target));
    ControlFlow::Continue(())
}

/// Instantiates `pattern` under `binding`, creating e-nodes as needed.
fn instantiate(eg: &mut EGraph, pattern: &Pattern, binding: &Binding) -> Signal {
    match pattern {
        Pattern::Var { var, complement } => binding[*var as usize]
            .expect("rule rhs uses a variable the lhs never bound")
            .complement_if(*complement),
        Pattern::Maj {
            children,
            complement,
        } => {
            let a = instantiate(eg, &children[0], binding);
            let b = instantiate(eg, &children[1], binding);
            let c = instantiate(eg, &children[2], binding);
            eg.add(a, b, c).complement_if(*complement)
        }
    }
}

/// One round: matches every rule against every class of `snap` (classes
/// outer, rules inner, so a cut-off round loses coverage by region
/// rather than starving later rules) and applies each binding as it is
/// found. Unions made early are visible to later instantiations, whose
/// `add`s canonicalize on entry. Returns the merges made and what ended
/// the round: the budget that cut it short, or `IterBudget` when the
/// enumeration ran out and only another round can find more.
fn apply_round(
    eg: &mut EGraph,
    rules: &[RewriteRule],
    snap: &Snapshot,
    max_nodes: usize,
    match_cap: usize,
) -> (usize, StopReason) {
    let mut obligations: Vec<(&Pattern, Signal)> = Vec::new();
    let mut consumed = 0usize;
    let mut merged = 0usize;
    for cls in 0..snap.num_classes() {
        if snap.class(cls).is_empty() {
            continue;
        }
        let target = Signal::new(NodeId::new(cls as u32), false);
        for rule in rules {
            let mut emit = |binding: &Binding| {
                if consumed == match_cap {
                    return ControlFlow::Break(StopReason::MatchCap);
                }
                if eg.num_enodes() >= max_nodes {
                    return ControlFlow::Break(StopReason::NodeBudget);
                }
                consumed += 1;
                let rhs = instantiate(eg, &rule.rhs, binding);
                if eg.union(target, rhs) {
                    merged += 1;
                }
                ControlFlow::Continue(())
            };
            obligations.clear();
            obligations.push((&rule.lhs, target));
            let mut binding: Binding = [None; MAX_VARS];
            if let ControlFlow::Break(cut) =
                match_class(snap, &mut obligations, &mut binding, &mut emit)
            {
                return (merged, cut);
            }
        }
    }
    (merged, StopReason::IterBudget)
}

/// Runs equality saturation over `rules` within `budget`.
pub fn saturate(eg: &mut EGraph, rules: &[RewriteRule], budget: &Budget) -> SaturationReport {
    eg.rebuild();
    let mut report = SaturationReport::default();
    let match_cap = budget.max_nodes.saturating_mul(4).max(1024);
    let mut snap = Snapshot::default();
    for _ in 0..budget.max_iters {
        if eg.num_enodes() >= budget.max_nodes {
            report.stop = StopReason::NodeBudget;
            break;
        }
        report.iterations += 1;
        snap.take(eg);
        let (merged, cut) = apply_round(eg, rules, &snap, budget.max_nodes, match_cap);
        eg.rebuild();
        report.unions += merged;
        if merged == 0 {
            report.stop = StopReason::Saturated;
            break;
        }
        report.stop = cut;
    }
    report.saturated = report.stop == StopReason::Saturated;
    report.enodes = eg.num_enodes();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlim_mig::rewrite::rules::omega_rules;
    use rlim_mig::Mig;

    fn saturated(mig: &Mig, budget: &Budget) -> (EGraph, Vec<Signal>, SaturationReport) {
        let (mut eg, outs) = EGraph::from_mig(mig);
        let report = saturate(&mut eg, &omega_rules(), budget);
        let outs = outs.iter().map(|&s| eg.canonical(s)).collect();
        (eg, outs, report)
    }

    #[test]
    fn associativity_merges_the_two_orientations() {
        // ⟨x u ⟨y u z⟩⟩ and ⟨z u ⟨y u x⟩⟩ built separately must end up
        // in one class.
        let mut mig = Mig::new(4);
        let [x, u, y, z] = [mig.input(0), mig.input(1), mig.input(2), mig.input(3)];
        let inner_a = mig.add_maj(y, u, z);
        let lhs = mig.add_maj(x, u, inner_a);
        let inner_b = mig.add_maj(y, u, x);
        let rhs = mig.add_maj(z, u, inner_b);
        mig.add_output(lhs);
        mig.add_output(rhs);
        // The expanding Ω.D direction keeps the engine from a true
        // fixed point, so bound the run tightly instead; one round of
        // Ω.A is all the merge needs.
        let budget = Budget {
            max_nodes: 500,
            max_iters: 2,
        };
        let (eg, outs, report) = saturated(&mig, &budget);
        assert_eq!(outs[0], outs[1], "Ω.A must merge the two spellings");
        assert!(report.unions >= 1);
        assert!(eg.num_enodes() >= 4);
    }

    #[test]
    fn distributivity_fuses_shared_pairs() {
        // ⟨⟨x y u⟩ ⟨x y v⟩ z⟩ ≡ ⟨x y ⟨u v z⟩⟩.
        let mut mig = Mig::new(5);
        let [x, y, u, v, z] = [
            mig.input(0),
            mig.input(1),
            mig.input(2),
            mig.input(3),
            mig.input(4),
        ];
        let g1 = mig.add_maj(x, y, u);
        let g2 = mig.add_maj(x, y, v);
        let wide = mig.add_maj(g1, g2, z);
        let inner = mig.add_maj(u, v, z);
        let fused = mig.add_maj(x, y, inner);
        mig.add_output(wide);
        mig.add_output(fused);
        let budget = Budget {
            max_nodes: 500,
            max_iters: 2,
        };
        let (_, outs, _) = saturated(&mig, &budget);
        assert_eq!(outs[0], outs[1], "Ω.D must merge the two spellings");
    }

    #[test]
    fn psi_c_substitution_closes() {
        // ⟨x u ⟨y ū z⟩⟩ ≡ ⟨x u ⟨y x z⟩⟩.
        let mut mig = Mig::new(4);
        let [x, u, y, z] = [mig.input(0), mig.input(1), mig.input(2), mig.input(3)];
        let inner_a = mig.add_maj(y, !u, z);
        let lhs = mig.add_maj(x, u, inner_a);
        let inner_b = mig.add_maj(y, x, z);
        let rhs = mig.add_maj(x, u, inner_b);
        mig.add_output(lhs);
        mig.add_output(rhs);
        let budget = Budget {
            max_nodes: 500,
            max_iters: 2,
        };
        let (_, outs, _) = saturated(&mig, &budget);
        assert_eq!(outs[0], outs[1], "Ψ.C must merge the two spellings");
    }

    /// Majorities in a pattern: the e-nodes one instantiation can add.
    fn majorities(p: &Pattern) -> usize {
        match p {
            Pattern::Var { .. } => 0,
            Pattern::Maj { children, .. } => 1 + children.iter().map(majorities).sum::<usize>(),
        }
    }

    #[test]
    fn node_budget_stops_growth() {
        let mut mig = Mig::new(6);
        let inputs: Vec<Signal> = mig.inputs().collect();
        let mut acc = mig.add_maj(inputs[0], inputs[1], inputs[2]);
        for w in inputs.windows(3) {
            acc = mig.add_maj(acc, w[1], w[2]);
        }
        mig.add_output(acc);
        let rhs_max = omega_rules()
            .iter()
            .map(|r| majorities(&r.rhs))
            .max()
            .unwrap();
        assert_eq!(rhs_max, 3, "Ω.D.lr's rhs holds three majorities");
        let initial = EGraph::from_mig(&mig).0.num_enodes();
        assert_eq!(initial, 5);
        for max_nodes in [3, 5, 6, 8, 13, 21, 34] {
            let budget = Budget {
                max_nodes,
                max_iters: 8,
            };
            let (eg, _, report) = saturated(&mig, &budget);
            // The check runs before each instantiation, and one
            // instantiation adds at most `rhs_max` e-nodes.
            let bound = initial.max(max_nodes + rhs_max - 1);
            assert!(
                eg.num_enodes() <= bound,
                "max_nodes {max_nodes}: {} e-nodes exceed {bound}",
                eg.num_enodes()
            );
            assert_eq!(report.enodes, eg.num_enodes());
            assert_eq!(report.stop, StopReason::NodeBudget, "max_nodes {max_nodes}");
            assert!(report.iterations <= 8);
        }
    }

    #[test]
    fn stop_reason_names_what_ended_the_run() {
        // A lone gate over inputs: no rule lhs has a nested majority to
        // match, so the first round merges nothing.
        let mut lone = Mig::new(3);
        let [a, b, c] = [lone.input(0), lone.input(1), lone.input(2)];
        let g = lone.add_maj(a, b, c);
        lone.add_output(g);
        // A complemented chain over three inputs: dense enough that a
        // round can consume the 1024-binding cap (the floor at this node
        // budget) without reaching the node budget.
        let mut chain = Mig::new(3);
        let inputs: Vec<Signal> = chain.inputs().collect();
        let mut acc = chain.add_maj(inputs[0], inputs[1], inputs[2]);
        for i in 0..4 {
            acc = chain.add_maj(acc, inputs[(i + 1) % 3], !inputs[(i + 2) % 3]);
        }
        chain.add_output(acc);
        let cases = [
            (&lone, 256, 4, StopReason::Saturated, 1),
            (&chain, 256, 0, StopReason::IterBudget, 0),
            (&chain, 256, 1, StopReason::IterBudget, 1),
            (&chain, 256, 2, StopReason::MatchCap, 2),
            // Round 3 hits the node budget mid-round; round 4 never
            // starts.
            (&chain, 256, 3, StopReason::NodeBudget, 3),
            (&chain, 256, 4, StopReason::NodeBudget, 3),
            // Already over budget: no round runs at all.
            (&chain, 4, 4, StopReason::NodeBudget, 0),
        ];
        for (mig, max_nodes, max_iters, stop, iterations) in cases {
            let budget = Budget {
                max_nodes,
                max_iters,
            };
            let (_, _, report) = saturated(mig, &budget);
            assert_eq!(report.stop, stop, "{budget:?}");
            assert_eq!(report.iterations, iterations, "{budget:?}");
            assert_eq!(report.saturated, report.stop == StopReason::Saturated);
        }
    }

    #[test]
    fn saturation_is_deterministic() {
        let mut mig = Mig::new(5);
        let [a, b, c, d, e] = [
            mig.input(0),
            mig.input(1),
            mig.input(2),
            mig.input(3),
            mig.input(4),
        ];
        let g1 = mig.add_maj(a, b, c);
        let g2 = mig.add_maj(g1, !d, e);
        let g3 = mig.add_maj(g2, g1, !a);
        mig.add_output(g3);
        let budget = Budget {
            max_nodes: 200,
            max_iters: 6,
        };
        let (eg1, outs1, r1) = saturated(&mig, &budget);
        let (eg2, outs2, r2) = saturated(&mig, &budget);
        assert_eq!(r1, r2);
        assert_eq!(outs1, outs2);
        assert_eq!(eg1.nodes, eg2.nodes);
        assert_eq!(eg1.node_class, eg2.node_class);
    }
}
