(** Exact SAP by exhaustive search — the test oracle.

    Justified by the gravity argument (Observation 11): some optimal
    solution has every height equal to a sum of task demands, so searching
    heights over the distinct bounded subset sums of all demands is
    complete.  The search branches per task on "skip" or "place at h" for
    each non-conflicting candidate height, with residual-weight pruning
    and a symmetry cut: runs of interchangeable tasks (same interval,
    demand, weight) are forced into canonical order — non-decreasing
    heights, never a placement after a skip — so permutations of equal
    stacks are explored once.

    Exponential, and guarded: calls with more than {!task_cap} tasks raise
    [Invalid_argument] instead of silently running forever.  For larger
    instances use the LP-pruned branch and bound ({!Exact_bb}), which
    this module is the correctness oracle for. *)

val task_cap : int
(** The hard task-count guard (16). *)

val solve : Core.Path.t -> Core.Task.t list -> Core.Solution.sap
(** A maximum-weight feasible SAP solution.
    @raise Invalid_argument beyond {!task_cap} tasks. *)

val value : Core.Path.t -> Core.Task.t list -> float

val realizable : Core.Path.t -> Core.Task.t list -> Core.Solution.sap option
(** [realizable p ts] — a height assignment scheduling *all* of [ts], if
    one exists.  Drives the Fig. 1 experiment (UFPP-feasible task sets with
    no SAP realisation).
    @raise Invalid_argument beyond {!task_cap} tasks. *)
