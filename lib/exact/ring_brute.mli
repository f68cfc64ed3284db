(** Exact SAP on rings by exhaustive search over (subset, routing, heights).

    Each task branches three ways — skipped, routed clockwise or
    counter-clockwise — with heights drawn from the bounded subset sums of
    all demands, exactly as in {!Sap_brute}, plus the same symmetry cut:
    runs of interchangeable tasks (same terminals, demand, weight) are
    forced into non-decreasing (direction, height) order and never place
    after a skip.

    Exponential with base 3, and guarded: calls with more than {!task_cap}
    tasks raise [Invalid_argument] instead of silently running forever.
    Oracle for the Theorem 5 experiments and for {!Exact_bb.solve_ring}. *)

val task_cap : int
(** The hard task-count guard (12). *)

val solve : Core.Ring.t -> Core.Ring.solution
(** A maximum-weight feasible ring solution.
    @raise Invalid_argument beyond {!task_cap} tasks. *)

val value : Core.Ring.t -> float
