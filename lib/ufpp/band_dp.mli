(** Exact UFPP on almost-uniform bands of delta-large tasks.

    The UFPP analogue of the paper's Lemma 13 (and the shape of the band
    solver in Bonsma et al.'s framework): {!Band_sweep} sweeps the edges
    left to right with DP states = the set of *selected alive* tasks, and a
    task is selected only if every edge of its path keeps its load within
    capacity.  Because the tasks are delta-large and capacities lie within
    a [2^ell] factor, at most [L = 2^ell / delta] selected tasks cross any
    edge (Lemma 12(i)), so the state space is polynomial for constant [L].
    No heights are tracked (every task sits at height 0 in the sweep) —
    this is why the UFPP version is so much lighter than the Elevator.

    Exact whenever the state cap is not hit (reported), which the tests
    validate against the branch-and-bound solver. *)

type result = {
  solution : Core.Task.t list;
  exact : bool;
}

val solve :
  ?cap:int ->
  ?max_states:int ->
  Core.Path.t ->
  Core.Task.t list ->
  result
(** [solve p ts] — maximum-weight UFPP-feasible subset.  [cap] clips
    capacities (band ceiling); [max_states] defaults to 50000. *)
