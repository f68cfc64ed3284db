module Ring = Core.Ring

(* Route choice doubles the branching factor of the path search, so the
   hard guard sits lower than [Sap_brute.task_cap]. *)
let task_cap = 12

let guard n =
  if n > task_cap then
    invalid_arg
      (Printf.sprintf
         "Exact.Ring_brute.solve: %d tasks exceed the exhaustive-search cap \
          of %d (use Exact.Exact_bb.solve_ring for larger instances)"
         n task_cap)

(* Interchangeable ring tasks: same terminals, demand and weight.  Their
   (direction, height) choices are forced into non-decreasing
   lexicographic order (Cw < Ccw), and a skip forbids later placements in
   the run — permutations of equal stacks are explored once. *)
let identical (a : Ring.task) (b : Ring.task) =
  a.Ring.src = b.Ring.src && a.Ring.dst = b.Ring.dst
  && a.Ring.demand = b.Ring.demand
  && Float.equal a.Ring.weight b.Ring.weight

let dir_rank = function Ring.Cw -> 0 | Ring.Ccw -> 1

let choice_leq (d1, p1) (d2, p2) =
  dir_rank d1 < dir_rank d2 || (dir_rank d1 = dir_rank d2 && p1 <= p2)

type prev_choice = Free | Skipped | Chose of Ring.direction * int

let solve (r : Ring.t) =
  guard (Array.length r.Ring.tasks);
  let m = Ring.num_edges r in
  let caps = r.Ring.capacities in
  let tasks = Array.copy r.Ring.tasks in
  Array.sort
    (fun (a : Ring.task) b ->
      let c = Float.compare b.Ring.weight a.Ring.weight in
      if c <> 0 then c
      else
        let c = Int.compare a.Ring.src b.Ring.src in
        if c <> 0 then c
        else
          let c = Int.compare a.Ring.dst b.Ring.dst in
          if c <> 0 then c
          else
            let c = Int.compare a.Ring.demand b.Ring.demand in
            if c <> 0 then c else Int.compare a.Ring.id b.Ring.id)
    tasks;
  let n = Array.length tasks in
  let suffix = Array.make (n + 1) 0.0 in
  for i = n - 1 downto 0 do
    suffix.(i) <- suffix.(i + 1) +. tasks.(i).Ring.weight
  done;
  let bound = Array.fold_left max 0 caps in
  let demands = Array.to_list tasks |> List.map (fun (t : Ring.task) -> t.Ring.demand) in
  let candidates = Util.Subset_sum.distinct_sums ~bound demands in
  (* Placed tasks carry their edge list; conflict = shared edge with
     overlapping vertical extent. *)
  let conflicts (edges : int list) p d (edges', p', d') =
    p < p' + d' && p' < p + d
    && List.exists (fun e -> List.mem e edges') edges
  in
  let placeable edges p d placed =
    List.for_all (fun e -> p + d <= caps.(e)) edges
    && not (List.exists (conflicts edges p d) placed)
  in
  let best = ref [] in
  let best_w = ref 0.0 in
  let rec branch i placed sol w prev =
    if w > !best_w then begin
      best_w := w;
      best := sol
    end;
    if i < n && w +. suffix.(i) > !best_w +. 1e-12 then begin
      let tk = tasks.(i) in
      let constr =
        if i > 0 && identical tasks.(i - 1) tk then prev else Free
      in
      (match constr with
      | Skipped -> ()
      | Free | Chose _ ->
          let admissible choice =
            match constr with
            | Chose (d, p) -> choice_leq (d, p) choice
            | _ -> true
          in
          let try_route dir =
            let edges =
              Ring.edges_of_route ~m ~src:tk.Ring.src ~dst:tk.Ring.dst dir
            in
            List.iter
              (fun p ->
                if admissible (dir, p) && placeable edges p tk.Ring.demand placed
                then
                  branch (i + 1)
                    ((edges, p, tk.Ring.demand) :: placed)
                    ((tk, p, dir) :: sol)
                    (w +. tk.Ring.weight)
                    (Chose (dir, p)))
              candidates
          in
          try_route Ring.Cw;
          try_route Ring.Ccw);
      branch (i + 1) placed sol w Skipped
    end
  in
  branch 0 [] [] 0.0 Free;
  !best

let value r = Ring.solution_weight (solve r)
