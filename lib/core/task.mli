(** A SAP/UFPP task: a sub-path of the line, a demand and a weight.

    Edges of the path are indexed [0 .. m-1]; a task occupies the inclusive
    edge range [\[first_edge, last_edge\]] (the paper's interval [I_j]).
    Demands and capacities are integers so that heights — which the gravity
    argument shows can be taken to be sums of demands — are exact; weights
    are floats. *)

type t = private {
  id : int;
      (** Unique within an instance: every instance parser rejects a
          repeated id, and generators number tasks [0 .. n-1]. *)
  first_edge : int;
  last_edge : int;
  demand : int;
  weight : float;
}

val make : id:int -> first_edge:int -> last_edge:int -> demand:int -> weight:float -> t
(** Validates [0 <= first_edge <= last_edge], [demand > 0] and a finite
    [weight >= 0]. *)

val with_id : t -> int -> t
(** Copy with a new id (used by instance construction). *)

val with_weight : t -> float -> t
(** Copy with a new weight (used by the local-ratio decompositions);
    validated as in {!make}. *)

val uses : t -> int -> bool
(** [uses j e] — does edge [e] lie on [I_j]? *)

val overlaps : t -> t -> bool
(** [I_i] and [I_j] share an edge. *)

val span : t -> int
(** Number of edges on the task's path. *)

val weight_of : t list -> float
(** Total weight of a task list. *)

val demand_of : t list -> int
(** Total demand [d(S)] of a task list. *)

val compare : t -> t -> int
(** Total order by id. *)

val pp : Format.formatter -> t -> unit
