type t = {
  id : int;
  first_edge : int;
  last_edge : int;
  demand : int;
  weight : float;
}

let make ~id ~first_edge ~last_edge ~demand ~weight =
  if first_edge < 0 || first_edge > last_edge then
    invalid_arg "Task.make: bad edge range";
  if demand <= 0 then invalid_arg "Task.make: demand must be positive";
  if not (Float.is_finite weight) then invalid_arg "Task.make: weight must be finite";
  if weight < 0.0 then invalid_arg "Task.make: weight must be non-negative";
  { id; first_edge; last_edge; demand; weight }

let with_id t id = { t with id }

let with_weight t weight =
  if not (Float.is_finite weight) then invalid_arg "Task.with_weight: not finite";
  if weight < 0.0 then invalid_arg "Task.with_weight: negative";
  { t with weight }

let uses t e = t.first_edge <= e && e <= t.last_edge

let overlaps a b = a.first_edge <= b.last_edge && b.first_edge <= a.last_edge

let span t = t.last_edge - t.first_edge + 1

let weight_of ts = List.fold_left (fun acc t -> acc +. t.weight) 0.0 ts

let demand_of ts = List.fold_left (fun acc t -> acc + t.demand) 0 ts

let compare a b = Int.compare a.id b.id

let pp ppf t =
  Format.fprintf ppf "#%d[%d..%d] d=%d w=%g" t.id t.first_edge t.last_edge
    t.demand t.weight
