module Task = Core.Task
module Path = Core.Path

(* The search is exponential in the task count with no LP pruning: past
   this many tasks it is effectively non-terminating, and callers should
   use [Exact_bb] instead.  A hard guard beats a silent hang. *)
let task_cap = 16

let guard what n =
  if n > task_cap then
    invalid_arg
      (Printf.sprintf
         "Exact.Sap_brute.%s: %d tasks exceed the exhaustive-search cap of \
          %d (use Exact.Exact_bb for larger instances)"
         what n task_cap)

let height_candidates path ts =
  let bound = Path.max_capacity path in
  let demands = List.map (fun (j : Task.t) -> j.Task.demand) ts in
  Util.Subset_sum.distinct_sums ~bound demands

let conflicts (j : Task.t) p ((i : Task.t), hi) =
  Task.overlaps j i && p < hi + i.Task.demand && hi < p + j.Task.demand

let placeable path placed j p =
  p + (j : Task.t).Task.demand <= Path.bottleneck_of path j
  && not (List.exists (conflicts j p) placed)

(* Interchangeable tasks (same interval, demand and weight) generate
   search-tree permutations that all encode the same family of solutions.
   Canonical form: within a run of identical tasks, heights are
   non-decreasing and no placed task follows a skipped one. *)
let identical (x : Task.t) (y : Task.t) =
  x.Task.first_edge = y.Task.first_edge
  && x.Task.last_edge = y.Task.last_edge
  && x.Task.demand = y.Task.demand
  && Float.equal x.Task.weight y.Task.weight

(* Sort for the weight-suffix bound (heaviest first) with a shape
   tie-break so identical tasks end up adjacent for the symmetry cut. *)
let search_order (x : Task.t) (y : Task.t) =
  let c = Float.compare y.Task.weight x.Task.weight in
  if c <> 0 then c
  else
    let c = Int.compare x.Task.first_edge y.Task.first_edge in
    if c <> 0 then c
    else
      let c = Int.compare x.Task.last_edge y.Task.last_edge in
      if c <> 0 then c
      else
        let c = Int.compare x.Task.demand y.Task.demand in
        if c <> 0 then c else Int.compare x.Task.id y.Task.id

type prev_choice = Free | Skipped | Placed_at of int

let solve path ts =
  guard "solve" (List.length ts);
  let a = Array.of_list ts in
  Array.sort search_order a;
  let n = Array.length a in
  let suffix = Array.make (n + 1) 0.0 in
  for i = n - 1 downto 0 do
    suffix.(i) <- suffix.(i + 1) +. a.(i).Task.weight
  done;
  let candidates = height_candidates path ts in
  let best = ref [] in
  let best_w = ref 0.0 in
  let rec branch i placed w prev =
    if w > !best_w then begin
      best_w := w;
      best := placed
    end;
    if i < n && w +. suffix.(i) > !best_w +. 1e-12 then begin
      let j = a.(i) in
      let constr =
        if i > 0 && identical a.(i - 1) j then prev else Free
      in
      (match constr with
      | Skipped -> () (* placing after an identical skip is a permutation *)
      | Free | Placed_at _ ->
          let floor_h = match constr with Placed_at h -> h | _ -> 0 in
          List.iter
            (fun p ->
              if p >= floor_h && placeable path placed j p then
                branch (i + 1) ((j, p) :: placed) (w +. j.Task.weight)
                  (Placed_at p))
            candidates);
      branch (i + 1) placed w Skipped
    end
  in
  branch 0 [] 0.0 Free;
  !best

let value path ts = Core.Solution.sap_weight (solve path ts)

exception Found of Core.Solution.sap

let realizable path ts =
  guard "realizable" (List.length ts);
  (* Place every task or fail; first full placement wins.  Tasks in
     decreasing demand order — big rectangles constrain most — with a
     shape tie-break so identical tasks sit adjacent and are forced into
     non-decreasing heights. *)
  let a = Array.of_list ts in
  Array.sort
    (fun (x : Task.t) y ->
      let c = Int.compare y.Task.demand x.Task.demand in
      if c <> 0 then c else search_order x y)
    a;
  let n = Array.length a in
  let candidates = height_candidates path ts in
  let rec branch i placed prev =
    if i = n then raise (Found placed)
    else
      let j = a.(i) in
      let floor_h =
        if i > 0 && identical a.(i - 1) j then
          match prev with Placed_at h -> h | _ -> 0
        else 0
      in
      List.iter
        (fun p ->
          if p >= floor_h && placeable path placed j p then
            branch (i + 1) ((j, p) :: placed) (Placed_at p))
        candidates
  in
  try
    branch 0 [] Free;
    None
  with Found sol -> Some sol
