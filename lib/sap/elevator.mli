(** Algorithm Elevator: the optimal beta-elevated SAP solution of an
    almost-uniform band, a 2-approximation (Lemmas 13-15 and the remark
    after Lemma 15).

    {2 The dynamic program (Lemma 13)}

    {!Ufpp.Band_sweep} sweeps the edges left to right; a DP state is the
    set of *alive* tasks (those whose path covers the current edge)
    together with their heights.  When a task starts, it is either skipped
    or placed at a candidate height that clears the alive set; candidate
    heights are the bounded distinct subset sums of all demands — complete
    by the gravity argument (Observation 11 / Lemma 12(ii)).  States with
    equal (alive-set, heights) keys are merged keeping the max weight,
    which is exactly the paper's table [Pi(e_i, S_i, h_i)] evaluated
    lazily on reachable states only.

    The paper's bound on the table size uses [L = 2^ell / delta] tasks per
    edge (Lemma 12(i)); we do not materialise the full [O(n^(L+L^2))] table
    but cap the live state count, reporting whether the cap was hit (in
    which case the result is a heuristic, not an optimum — the tests run
    well under the cap). *)

type result = {
  solution : Core.Solution.sap;
  exact : bool;  (** false iff the state cap truncated the search *)
}

val optimal_band :
  cap:int ->
  ?min_height:int ->
  ?max_states:int ->
  Core.Path.t ->
  Core.Task.t list ->
  result
(** [optimal_band ~cap p ts] — optimal SAP for [ts] with every capacity
    clipped at [cap] (the band's [2^(k+ell)] ceiling).  [max_states]
    defaults to 20000 live states per edge.  [min_height] (default 0)
    restricts candidate heights to [>= min_height]: with
    [min_height = beta * 2^k] this computes the optimal *beta-elevated*
    solution directly, as {!solve} does. *)

val partition_elevated :
  elevation:int ->
  Core.Solution.sap ->
  Core.Solution.sap * Core.Solution.sap
(** Lemma 14: split [(S,h)] into [S1 = { h < elevation }] lifted by
    [elevation], and [S2 = { h >= elevation }].  Both halves are
    [elevation]-elevated; [S2] is trivially feasible and [S1]'s
    feasibility, guaranteed for [(1-2beta)]-small tasks when
    [elevation <= beta * 2^k], is machine-checked by the caller. *)

val solve :
  k:int ->
  ell:int ->
  q:int ->
  ?max_states:int ->
  Core.Path.t ->
  Core.Task.t list ->
  result
(** The Elevator of band [k]: the remark after Lemma 15 — one DP over
    heights at least the elevation [beta * 2^k = 2^(k-q)] (clamped to at
    least 1), i.e. {!optimal_band} with that [min_height], returning the
    optimal beta-elevated solution for [beta >= 2^-q].  Lemma 14 makes it
    2-approximate, and it is never lighter than either half of
    {!solve_partition}. *)

val solve_partition :
  k:int ->
  ell:int ->
  q:int ->
  ?max_states:int ->
  Core.Path.t ->
  Core.Task.t list ->
  result
(** Lemma 15 as stated: the optimal band solution, partitioned at the
    elevation of {!solve}, better feasible half returned — 2-approximate
    and beta-elevated.  Kept as the reference {!solve} is measured against
    (bench ABL1 and the tests' Direct >= Partition properties). *)
