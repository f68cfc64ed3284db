module Task = Core.Task
module Path = Core.Path

type result = {
  solution : Core.Task.t list;
  exact : bool;
}

(* [j] joins the selected tasks [alive] when the load on every edge of its
   path, [j] included, stays within capacity.  Checking [j]'s whole path
   when it starts is enough: on each edge, the task that starts last sees
   all the others alive. *)
let fits path (j : Task.t) alive =
  let load e =
    List.fold_left
      (fun acc ((i : Task.t), _) -> if i.Task.last_edge >= e then acc + i.Task.demand else acc)
      j.Task.demand alive
  in
  let rec ok e = e > j.Task.last_edge || (load e <= Path.capacity path e && ok (e + 1)) in
  ok j.Task.first_edge

(* UFPP has no heights: a selected task sits at 0. *)
let ground = [ 0 ]

let solve ?cap ?(max_states = 50000) path ts =
  let clipped = match cap with Some c -> Path.clip path c | None -> path in
  let ts =
    List.filter (fun (j : Task.t) -> j.Task.demand <= Path.bottleneck_of clipped j) ts
  in
  let heights j alive = if fits clipped j alive then ground else [] in
  let r = Band_sweep.run ~max_states ~edges:(Path.num_edges clipped) ~heights ts in
  { solution = List.map fst r.Band_sweep.placed; exact = r.Band_sweep.truncations = 0 }
