(** The natural UFPP packing LP — relaxation of program (1) in the paper.

    [maximize  sum_j w_j x_j
     s.t.      sum_{j : e in I_j} d_j x_j <= c_e   for every edge e
               0 <= x_j <= 1]

    Used (a) inside the LP-rounding algorithm for small tasks (Sect. 4.1)
    and (b) as an upper bound on [OPT_SAP] for empirical ratio measurement,
    since every SAP solution induces a UFPP solution which is LP-feasible. *)

type t = {
  tasks : Core.Task.t array;     (** column [j] is [tasks.(j)] *)
  value : float;            (** optimal LP objective *)
  solution : float array;   (** optimal fractional [x] *)
}

val solve : Core.Path.t -> Core.Task.t list -> t
(** Builds and solves the relaxation as a min-cost flow on the path's
    nodes ({!Net_simplex}: [y_j = d_j x_j], adjacent edge rows
    subtracted, one arc per task and per edge).  Tasks that do not fit
    alone ([d_j > b(j)]) are left out with [x_j = 0] (they can never
    appear in an integral solution, and leaving them fractional would
    inflate the bound). *)

val solve_scaled : Core.Path.t -> scale:float -> Core.Task.t list -> t
(** Like {!solve} but with every capacity multiplied by [scale] (used to
    express "load at most B/2" targets as an LP over the same tasks). *)

type warm
(** Warm-start handle from a previous solve: its spanning-tree basis, the
    tree's task arcs and the tasks at [x = 1] keyed by task id and the
    tree's slack arcs by edge index, so it remains valid after tasks are
    added, removed, or resized between solves over the same path.  An
    unusable handle degrades to a cold solve — never an error. *)

val solve_scaled_warm :
  Core.Path.t -> scale:float -> ?warm:warm -> Core.Task.t list -> t * warm option
(** Like {!solve_scaled}, plus warm restarts: pass the [warm] handle of
    the previous solve to start from its tree (surviving tree arcs
    installed, components reconnected by slack arcs, flows derived
    leaf-up; see {!Net_simplex.solve}), and keep the returned handle for
    the next delta.  Removing a task at [x = 1] can push a tree flow past
    its bounds, and then the solve restarts cold
    ([simplex.warm_fallbacks]).  [None] is returned only when the LP is
    empty (no task fits). *)

val upper_bound : Core.Path.t -> Core.Task.t list -> float
(** The LP optimum: an upper bound on both [OPT_UFPP] and [OPT_SAP]. *)

val upper_bound_residual :
  Core.Path.t -> residual:int array -> Core.Task.t list -> float
(** [upper_bound_residual p ~residual ts] is the LP optimum over [ts] with
    edge [e]'s capacity replaced by [residual.(e)] (which may be 0 — the
    variable of any task whose residual bottleneck is below its demand is
    fixed to 0).  Used by the lab's branch-and-bound: after placing a set
    [P], every SAP extension by remaining tasks is UFPP-feasible under the
    residuals [c_e - load_P(e)], so this bounds the attainable extra
    weight.  Raises [Invalid_argument] on a length mismatch or negative
    residual. *)
