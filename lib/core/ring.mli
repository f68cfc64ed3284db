(** SAP on ring networks (Sect. 7).

    The resource is a cycle [C = (V, E)] with [m] edges; edge [e] connects
    vertices [e] and [(e+1) mod m].  Each task names two distinct terminal
    vertices and may be routed clockwise ([src -> dst] through increasing
    edges) or counter-clockwise.  A solution fixes a routing, a task subset
    and heights. *)

type task = private {
  id : int;
  src : int;
  dst : int;  (** vertices in [0..m-1], [src <> dst] *)
  demand : int;
  weight : float;
}

type t = { capacities : int array; tasks : task array }

type direction = Cw | Ccw

type solution = (task * int * direction) list
(** (task, height, routing). *)

val make_task : id:int -> src:int -> dst:int -> demand:int -> weight:float -> t_edges:int -> task
(** Validates the terminals against [t_edges], [demand > 0] and a finite
    [weight >= 0]. *)

val create : int array -> task list -> t
(** Validates terminals against the number of edges and re-numbers ids. *)

val num_edges : t -> int

val edges_of_route : m:int -> src:int -> dst:int -> direction -> int list
(** The edge set used by a routed task: clockwise is
    [src, src+1, ..., dst-1 (mod m)]; counter-clockwise the complement. *)

val solution_weight : solution -> float

val feasible : t -> solution -> (unit, string) result
(** Ring analogue of {!Checker.sap_feasible}: routed tasks sharing an edge
    occupy disjoint vertical ranges below the edge capacity. *)

val cut : t -> cut_edge:int -> Path.t * Task.t list * (int -> task)
(** [cut r ~cut_edge] removes [cut_edge] and relabels the remaining edges
    [0..m-2] as a path (walking clockwise from the vertex after the cut).
    Returns the path, the clockwise-routed path tasks for *every* ring task
    (each routed so as to avoid the cut edge — always possible), and a
    mapping from path-task id back to the ring task.  Tasks for which both
    terminals coincide after routing are preserved verbatim. *)

val to_ring_solution : t -> cut_edge:int -> Solution.sap -> (int -> task) -> solution
(** Interprets a SAP solution on the cut path as a ring solution (all tasks
    routed away from the cut edge). *)
