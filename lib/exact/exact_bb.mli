(** LP-pruned branch-and-bound exact SAP solver.

    The oracle for instances the exhaustive {!Sap_brute} cannot touch:
    the ratio lab measures against it, and it is the [exact] entry of
    {!Sap.Solvers}.  Same search skeleton — take/skip each task, heights
    drawn from the bounded subset sums of demands (complete by the gravity
    argument, Observation 11) — but with four accelerants:

    - {b density ordering}: tasks sorted by weight per unit of consumed
      area (demand x span), so a greedy dive yields a strong incumbent and
      the residual weight suffix stays tight;
    - {b residual LP pruning}: near the root the UFPP relaxation over the
      remaining tasks, with capacities reduced by the placed load
      ({!Lp.Ufpp_lp.upper_bound_residual}), bounds the attainable extra
      weight — valid because any SAP extension is UFPP-feasible under the
      residuals;
    - {b dominated-state memoization}: states agreeing on (next task
      index, per-edge occupied vertical intervals) have identical feasible
      completions, so only the heaviest is expanded;
    - {b symmetry cut}: interchangeable tasks (same interval, demand and
      weight) are canonicalised to non-decreasing heights with no
      placement after a skip, as in {!Sap_brute}.

    Optionally fans the search frontier over [jobs] domains
    ({!Util.Parallel.map}); workers share the incumbent through an atomic,
    so pruning tightens globally.
    A node budget turns the solver into an anytime bound: when exhausted,
    [value] is the best incumbent and [upper_bound] a certified LP bound. *)

type outcome = {
  solution : Core.Solution.sap;  (** best solution found *)
  value : float;  (** its weight *)
  upper_bound : float;
      (** certified upper bound on OPT; equals [value] iff [optimal] *)
  optimal : bool;  (** the search ran to completion within budget *)
  nodes : int;  (** branch-and-bound nodes expanded *)
}

val default_max_nodes : int

val solve :
  ?max_nodes:int ->
  ?jobs:int ->
  Core.Path.t ->
  Core.Task.t list ->
  outcome
(** [solve p ts] computes a maximum-weight feasible SAP solution, or —
    past [max_nodes] expanded nodes (default {!default_max_nodes}) — the
    best incumbent with [optimal = false] and a root-LP upper bound.  The
    residual LP is priced only at branching depth [< 10] with at least 5
    tasks left, where it prunes whole subtrees; deeper nodes rely on the
    O(1) suffix bound.
    With [jobs > 1] the top of the tree is expanded breadth-first and the
    subtrees solved on [jobs] domains; the default is sequential.  Tasks
    that fit nowhere ([d_j > b(j)]) are dropped up front. *)

val value : Core.Path.t -> Core.Task.t list -> float
(** [(solve p ts).value]. *)

type ring_outcome = {
  ring_solution : Core.Ring.solution;
  ring_value : float;
  ring_optimal : bool;
  ring_nodes : int;
}

val solve_ring : ?max_nodes:int -> Core.Ring.t -> ring_outcome
(** Ring analogue branching over (subset, routing, heights) as
    {!Ring_brute} does, with the density ordering, greedy incumbent,
    dominated-state memo and node budget (no LP — the bound past the
    incumbent is the weight suffix).  Sequential. *)
