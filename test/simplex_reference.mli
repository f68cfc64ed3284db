(** Test-only oracle: a dense-tableau primal simplex.

    Solves [maximize c.x  s.t.  A x <= b, x >= 0] with [b >= 0], every
    constraint (box constraints included) an explicit dense row.  The
    test suite states LP (1) this way and checks {!Lp.Ufpp_lp} — the
    network simplex on the LP's flow form — against it on random and
    degenerate instances.  It shares no code with that engine.  Emits no
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
