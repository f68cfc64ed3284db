type task = {
  id : int;
  src : int;
  dst : int;
  demand : int;
  weight : float;
}

type t = { capacities : int array; tasks : task array }

type direction = Cw | Ccw

type solution = (task * int * direction) list

let make_task ~id ~src ~dst ~demand ~weight ~t_edges =
  if t_edges < 3 then invalid_arg "Ring.make_task: ring needs >= 3 edges";
  if src = dst || src < 0 || dst < 0 || src >= t_edges || dst >= t_edges then
    invalid_arg "Ring.make_task: bad terminals";
  if demand <= 0 then invalid_arg "Ring.make_task: demand must be positive";
  if not (Float.is_finite weight) then invalid_arg "Ring.make_task: weight must be finite";
  if weight < 0.0 then invalid_arg "Ring.make_task: negative weight";
  { id; src; dst; demand; weight }

let create capacities tasks =
  let m = Array.length capacities in
  if m < 3 then invalid_arg "Ring.create: ring needs >= 3 edges";
  Array.iter
    (fun c -> if c <= 0 then invalid_arg "Ring.create: non-positive capacity")
    capacities;
  List.iter
    (fun tk ->
      if tk.src >= m || tk.dst >= m then invalid_arg "Ring.create: bad terminal")
    tasks;
  let tasks = Array.of_list tasks in
  let tasks = Array.mapi (fun i tk -> { tk with id = i }) tasks in
  { capacities = Array.copy capacities; tasks }

let num_edges r = Array.length r.capacities

let edges_of_route ~m ~src ~dst dir =
  (* Clockwise from [a] to [b]: edges a, a+1, ..., b-1 (mod m). *)
  let walk a b =
    let rec go e acc = if e = b then List.rev acc else go ((e + 1) mod m) (e :: acc) in
    go a []
  in
  match dir with
  | Cw -> walk src dst
  | Ccw ->
      (* The counter-clockwise route from src to dst uses exactly the
         complementary arc: the clockwise walk from dst back to src. *)
      walk dst src

let solution_weight sol =
  List.fold_left (fun acc (tk, _, _) -> acc +. tk.weight) 0.0 sol

let feasible r sol =
  let m = num_edges r in
  let per_edge = Array.make m [] in
  let ids = Hashtbl.create 16 in
  let rec place = function
    | [] -> Ok ()
    | (tk, h, dir) :: rest ->
        if Hashtbl.mem ids tk.id then
          Error (Printf.sprintf "duplicate ring task id %d" tk.id)
        else if h < 0 then Error (Printf.sprintf "ring task %d below ground" tk.id)
        else begin
          Hashtbl.add ids tk.id ();
          List.iter
            (fun e -> per_edge.(e) <- (h, h + tk.demand, tk.id) :: per_edge.(e))
            (edges_of_route ~m ~src:tk.src ~dst:tk.dst dir);
          place rest
        end
  in
  match place sol with
  | Error _ as e -> e
  | Ok () ->
      let rec scan e =
        if e = m then Ok ()
        else
          let segs = List.sort compare per_edge.(e) in
          let rec walk prev_top prev_id = function
            | [] -> scan (e + 1)
            | (lo, hi, id) :: rest ->
                if lo < prev_top then
                  Error
                    (Printf.sprintf
                       "ring edge %d: tasks %d and %d overlap vertically" e
                       prev_id id)
                else if hi > r.capacities.(e) then
                  Error
                    (Printf.sprintf "ring edge %d: task %d exceeds capacity" e id)
                else walk hi id rest
          in
          walk 0 (-1) segs
      in
      scan 0

let path_position ~m ~cut_edge e =
  (* Ring edge [e <> cut_edge] sits at path index (e - cut_edge - 1) mod m. *)
  ((e - cut_edge - 1) mod m + m) mod m

let cut r ~cut_edge =
  let m = num_edges r in
  if cut_edge < 0 || cut_edge >= m then invalid_arg "Ring.cut: bad edge";
  let caps =
    Array.init (m - 1) (fun p -> r.capacities.((cut_edge + 1 + p) mod m))
  in
  let path = Path.create caps in
  let route_avoiding tk =
    let cw = edges_of_route ~m ~src:tk.src ~dst:tk.dst Cw in
    if List.mem cut_edge cw then edges_of_route ~m ~src:tk.src ~dst:tk.dst Ccw
    else cw
  in
  let to_path_task tk =
    let arc = route_avoiding tk in
    let positions = List.map (path_position ~m ~cut_edge) arc in
    let first = List.fold_left min (List.hd positions) positions in
    let last = List.fold_left max (List.hd positions) positions in
    Task.make ~id:tk.id ~first_edge:first ~last_edge:last ~demand:tk.demand
      ~weight:tk.weight
  in
  let path_tasks = Array.to_list r.tasks |> List.map to_path_task in
  (path, path_tasks, fun id -> r.tasks.(id))

let to_ring_solution r ~cut_edge sol back =
  let m = num_edges r in
  List.map
    (fun ((j : Task.t), h) ->
      let tk = back j.Task.id in
      let cw = edges_of_route ~m ~src:tk.src ~dst:tk.dst Cw in
      let dir = if List.mem cut_edge cw then Ccw else Cw in
      (tk, h, dir))
    sol
