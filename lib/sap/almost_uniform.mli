(** Algorithm AlmostUniform — the framework of Section 5.1 (Theorem 2).

    Given a band solver producing beta-elevated alpha-approximate solutions
    for every band [J^(k,ell)], the framework:
    + solves every non-empty band;
    + for each residue [r] of [k mod (ell+q)], with [q = ceil(log2 1/beta)],
      unions the band solutions with [k ≡ r] — feasible because a band's
      elevation [2^(k-q)] clears the [2^(k'+ell)] makespan ceiling
      (Observation 7) of every lower band [k' <= k - ell - q] in the union
      (Lemma 8);
    + returns the heaviest of the [ell+q] candidates (Lemma 9 gives the
      [ell/(ell+q) * 1/alpha] fraction, so [ell = q/eps] yields
      [(1+eps) * alpha]).

    The band solver is {!Elevator.solve}, the optimal beta-elevated
    solution of the band; Lemma 14 makes it 2-approximate, so [alpha = 2]:
    the [(2+eps)] medium-task algorithm. *)

type band_outcome = {
  k : int;
  band_tasks : Core.Task.t list;
  band_solution : Core.Solution.sap;
  band_exact : bool;
}

type result = {
  solution : Core.Solution.sap;
  chosen_residue : int;
  exact : bool;  (** every band DP ran to completion *)
  bands : band_outcome list;
}

val ell_for_eps : eps:float -> q:int -> int
(** [ceil(q / eps)] — Lemma 10's choice. *)

val run :
  ell:int ->
  q:int ->
  ?max_states:int ->
  Core.Path.t ->
  Core.Task.t list ->
  result
(** Runs the framework with {!Elevator.solve} on every band
    ([max_states] is its state cap).  Each
    candidate union is feasibility-checked; infeasible candidates (never
    observed; guarded for integer edge cases of bands with [k < q]) are
    skipped. *)
