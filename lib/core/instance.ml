let load_profile path ts =
  let m = Path.num_edges path in
  let diff = Array.make (m + 1) 0 in
  List.iter
    (fun (j : Task.t) ->
      diff.(j.Task.first_edge) <- diff.(j.Task.first_edge) + j.Task.demand;
      diff.(j.Task.last_edge + 1) <- diff.(j.Task.last_edge + 1) - j.Task.demand)
    ts;
  let load = Array.make m 0 in
  let acc = ref 0 in
  for e = 0 to m - 1 do
    acc := !acc + diff.(e);
    load.(e) <- !acc
  done;
  load

let max_load path ts =
  Array.fold_left max 0 (load_profile path ts)
