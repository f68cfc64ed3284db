(** LP-pruned branch-and-bound exact SAP solver, on paths and on rings.

    The oracle for instances the exhaustive {!Sap_brute} and
    {!Ring_brute} cannot touch: the ratio lab and the hunt measure
    against it, and it is the [exact] entry of {!Sap.Solvers}.  One
    search serves both problems: a ring task is a path task with two
    routes (clockwise first), and the search branches over (take or
    skip, route, height) for each task, heights drawn from the bounded
    subset sums of demands (complete by the gravity argument,
    Observation 11).  Five accelerants:

    - {b density ordering}: tasks sorted by weight per unit of consumed
      area (demand x length of the shortest route), so a greedy dive
      yields a strong incumbent and the residual weight suffix stays
      tight;
    - {b residual LP pruning} (paths only): near the root the UFPP
      relaxation over the remaining tasks, with capacities reduced by the
      placed load ({!Lp.Ufpp_lp.upper_bound_residual}), bounds the
      attainable extra weight — valid because any SAP extension is
      UFPP-feasible under the residuals;
    - {b dominated-state memoization}: states agreeing on (next task
      index, per-edge occupied vertical intervals) have identical feasible
      completions, so only the heaviest is expanded.  The memo is keyed
      by the per-edge occupancy the search places into: its incremental
      hash picks the bucket, and an entry (the placements that built its
      occupancy) is compared in full against the current occupancy, so a
      hash collision never cuts;
    - {b symmetry cut}: interchangeable tasks (same endpoints, demand and
      weight) are canonicalised to non-decreasing (route, height) with no
      placement after a skip, as in {!Sap_brute};
    - {b frontier fan-out}: with [jobs > 1] the top of the tree is
      expanded breadth-first and the subtrees solved on [jobs] domains
      ({!Util.Parallel.map}); workers share the incumbent through an
      atomic, so pruning tightens globally.

    A node budget turns the solver into an anytime bound: when exhausted,
    [value] is the best incumbent and [upper_bound] a certified bound. *)

type 's outcome = {
  solution : 's;  (** best solution found *)
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
  Core.Solution.sap outcome
(** [solve p ts] computes a maximum-weight feasible SAP solution, or —
    past [max_nodes] expanded nodes (default {!default_max_nodes}) — the
    best incumbent with [optimal = false] and the root LP optimum as
    [upper_bound].  The residual LP is priced only at branching depth
    [< 10] with at least 5 tasks left, where it prunes whole subtrees;
    deeper nodes rely on the O(1) suffix bound.  [jobs] is the frontier
    fan-out; the default is sequential.  Tasks that fit nowhere
    ([d_j > b(j)]) are dropped up front. *)

val value : Core.Path.t -> Core.Task.t list -> float
(** [(solve p ts).value]. *)

val solve_ring : ?max_nodes:int -> Core.Ring.t -> Core.Ring.solution outcome
(** The same search on a ring, each task routed either way; sequential.
    No LP: the bound past the incumbent is the weight suffix, and a
    budget-exhausted [upper_bound] is the total task weight.  Tasks that
    fit nowhere stay in the search (they are only ever skipped), and
    [value] is {!Core.Ring.solution_weight} of [solution]. *)
