(** Exact minimum-round search, mirroring {!Exact.Exact_bb}'s shape: an
    anytime branch-and-bound with a node budget plus an independent
    brute-force oracle the tests and the lab gate cross-check it against.

    {b Realizability.}  Both searches reduce to "can this task set share
    one round?", decided exactly by a height DFS whose candidate heights
    are the bounded subset sums of the round's demands — complete by the
    gravity argument (any feasible packing normalises so every task rests
    on the floor or on another task, making each height a sum of the
    demands below it).  Verdicts are memoised by task-id set, so the
    partition searches replay them for free.

    {b Branch-and-bound.}  Tasks in decreasing-demand order are assigned
    to rounds; opening round [r] is only allowed when rounds [0..r-1] are
    occupied (the standard partition symmetry cut).  The round count [r]
    is tried in ascending order from {!Lower_bound.certified}, so the
    first feasible [r] is optimal; each fully-refuted [r] raises the
    certified lower bound even when the budget later runs out, making the
    search an anytime bound exactly as in {!Exact.Exact_bb}. *)

type outcome = {
  rounds : Core.Solution.sap list;
      (** the best (fewest-rounds) checker-feasible solution found —
          optimal when [optimal], else the greedy incumbent *)
  value : int;  (** [List.length rounds] *)
  lower_bound : int;
      (** certified: every partition into fewer rounds was refuted (or is
          impossible by {!Lower_bound.certified}) *)
  optimal : bool;  (** [value = lower_bound] proved within budget *)
  nodes : int;  (** assignment nodes expanded *)
}

val default_max_nodes : int

val solve : ?max_nodes:int -> Instance.t -> outcome

val task_cap : int
(** Largest instance {!brute_rounds} will touch (partition enumeration is
    a Bell number). *)

val brute_rounds : Instance.t -> int
(** Exact optimum by enumerating every set partition (restricted-growth
    strings) and keeping the fewest-blocks partition whose blocks are all
    realizable.  @raise Invalid_argument above {!task_cap}. *)

val realizable : Core.Path.t -> Core.Task.t list -> Core.Solution.sap option
(** One-round feasibility oracle (exposed for tests): a feasible SAP
    placement of {e all} the given tasks, or [None] when none exists. *)
