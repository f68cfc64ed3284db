(** Test-only oracle: the original dense-tableau primal simplex.

    Solves the same [maximize c.x  s.t.  A x <= b, x >= 0] problems as
    {!Lp.Simplex.maximize}, with every box constraint as an explicit dense
    row.  The test suite checks the sparse bounded-variable core against
    it on random LPs; production code must use {!Lp.Simplex}.  Emits no
    metrics (so test runs never perturb [simplex.*] counters). *)

type problem = {
  objective : float array;       (** [c], length n *)
  rows : (float array * float) list;  (** [(a_i, b_i)] with [b_i >= 0] *)
}

type outcome =
  | Optimal of { value : float; solution : float array; iterations : int }
  | Unbounded

val maximize : ?eps:float -> ?max_iterations:int -> problem -> outcome

val box_row : n:int -> int -> float -> float array * float
(** [box_row ~n j ub] is the row encoding [x_j <= ub]. *)
