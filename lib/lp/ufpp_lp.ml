type t = {
  tasks : Core.Task.t array;
  value : float;
  solution : float array;
}

(* A warm handle keys the tree basis by stable identifiers — task ids for
   task arcs, edge indices for slack arcs — so it survives the column
   renumbering a delta causes. *)
type warm = {
  w_tree : int array;  (* task ids of the tree's task arcs *)
  w_edges : int array;  (* edges of the tree's slack arcs *)
  w_upper : int array;  (* task ids at x = 1 *)
}

(* LP (1) over the tasks that [fit] alone under [capacity]. *)
let solve_lp ?warm ~capacity ~fits ts =
  let tasks = Array.of_list ts in
  let cols = Array.of_list (List.filter fits ts) in
  let n = Array.length cols in
  if n = 0 then ({ tasks; value = 0.0; solution = Array.make (Array.length tasks) 0.0 }, None)
  else begin
    let by_id = Hashtbl.create n in
    Array.iteri (fun c (j : Core.Task.t) -> Hashtbl.replace by_id j.Core.Task.id c) cols;
    let col id = Option.value (Hashtbl.find_opt by_id id) ~default:(-1) in
    let warm =
      Option.map
        (fun w ->
          {
            Net_simplex.tree_cols = Array.map col w.w_tree;
            tree_edges = w.w_edges;
            upper_cols = Array.map col w.w_upper;
          })
        warm
    in
    let r = Net_simplex.solve ?warm ~capacity cols in
    let solution =
      Array.map
        (fun (j : Core.Task.t) ->
          match Hashtbl.find_opt by_id j.Core.Task.id with Some c -> r.x.(c) | None -> 0.0)
        tasks
    in
    let ids = Array.map (fun c -> cols.(c).Core.Task.id) in
    let b = r.Net_simplex.basis in
    ( { tasks; value = r.value; solution },
      Some { w_tree = ids b.tree_cols; w_edges = b.tree_edges; w_upper = ids b.upper_cols } )
  end

let solve_scaled_warm path ~scale ?warm ts =
  let capacity =
    Array.init (Core.Path.num_edges path) (fun e ->
        scale *. float_of_int (Core.Path.capacity path e))
  in
  let fits (j : Core.Task.t) =
    float_of_int j.Core.Task.demand <= scale *. float_of_int (Core.Path.bottleneck_of path j)
  in
  solve_lp ?warm ~capacity ~fits ts

let solve_scaled path ~scale ts = fst (solve_scaled_warm path ~scale ts)

let solve path ts = solve_scaled path ~scale:1.0 ts

let upper_bound path ts = (solve path ts).value

let upper_bound_residual path ~residual ts =
  let m = Core.Path.num_edges path in
  if Array.length residual <> m then
    invalid_arg "Ufpp_lp: residual length does not match the path";
  Array.iteri
    (fun e r ->
      if r < 0 then
        invalid_arg
          (Printf.sprintf "Ufpp_lp: negative residual %d on edge %d" r e))
    residual;
  (* A task fits iff its demand clears the residual bottleneck — computed
     by walking the interval (residuals have no sparse-table index). *)
  let fits (j : Core.Task.t) =
    let rec go e mn =
      if e > j.Core.Task.last_edge then mn else go (e + 1) (min mn residual.(e))
    in
    j.Core.Task.demand <= go j.Core.Task.first_edge max_int
  in
  let capacity = Array.map float_of_int residual in
  (fst (solve_lp ~capacity ~fits ts)).value
