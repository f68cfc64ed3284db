module Task = Core.Task
module Path = Core.Path

let case = Helpers.case

let counter name = Obs.Metrics.counter_value (Obs.Metrics.counter name)

(* ---------- instances for the oracle properties ---------- *)

(* Bigger and more degenerate than [Helpers.tiny_instance]: up to 30
   edges and 60 tasks, capacities from a narrow range so they tie,
   integer weights 1-5 so optima tie too, and demands up to twice the
   bottleneck so some tasks do not fit. *)
let degenerate_instance seed =
  let g = Util.Prng.create seed in
  let m = Util.Prng.int_in g 1 30 in
  let base = Util.Prng.int_in g 4 12 in
  let path = Path.create (Array.init m (fun _ -> base + Util.Prng.int g 3)) in
  let n = Util.Prng.int_in g 1 60 in
  let task id =
    let first_edge = Util.Prng.int g m in
    let last_edge = min (m - 1) (first_edge + Util.Prng.int g 8) in
    let b = Path.bottleneck path ~first:first_edge ~last:last_edge in
    let demand = 1 + Util.Prng.int g (2 * b) in
    let weight = float_of_int (Util.Prng.int_in g 1 5) in
    Task.make ~id ~first_edge ~last_edge ~demand ~weight
  in
  (path, List.init n task)

(* Some edges fully used up, as in the branch-and-bound's residuals. *)
let residuals g path =
  Array.init (Path.num_edges path) (fun e ->
      if Util.Prng.int g 4 = 0 then 0 else Util.Prng.int_in g 0 (Path.capacity path e))

(* LP (1) as explicit dense rows for the reference tableau: one row per
   used edge, one box row per column, columns the tasks that fit alone. *)
let reference_value ~capacity tasks =
  let m = Array.length capacity in
  let fits (j : Task.t) =
    let b = ref infinity in
    for e = j.Task.first_edge to j.Task.last_edge do
      b := Float.min !b capacity.(e)
    done;
    float_of_int j.Task.demand <= !b
  in
  let cols = List.filter fits tasks |> Array.of_list in
  let n = Array.length cols in
  if n = 0 then 0.0
  else begin
    let objective = Array.map (fun (j : Task.t) -> j.Task.weight) cols in
    let capacity_rows =
      List.filter_map
        (fun e ->
          if Array.exists (fun j -> Task.uses j e) cols then
            Some
              ( Array.map
                  (fun (j : Task.t) ->
                    if Task.uses j e then float_of_int j.Task.demand else 0.0)
                  cols,
                capacity.(e) )
          else None)
        (List.init m Fun.id)
    in
    let rows =
      capacity_rows @ List.init n (fun c -> Simplex_reference.box_row ~n c 1.0)
    in
    match Simplex_reference.maximize { Simplex_reference.objective; rows } with
    | Simplex_reference.Unbounded -> Float.nan
    | Simplex_reference.Optimal { value; _ } -> value
  end

let scaled_capacity path scale =
  Array.map (fun c -> scale *. float_of_int c) (Path.capacities path)

(* A solution is primal-feasible for LP (1) under [capacity]: boxes hold,
   every edge's load fits, tasks that do not fit stay at 0, and the
   reported value is the solution's objective. *)
let feasible ~capacity (r : Lp.Ufpp_lp.t) =
  let load = Array.make (Array.length capacity) 0.0 in
  let ok = ref true in
  Array.iteri
    (fun i (j : Task.t) ->
      let x = r.Lp.Ufpp_lp.solution.(i) in
      if x < 0.0 || x > 1.0 then ok := false;
      for e = j.Task.first_edge to j.Task.last_edge do
        load.(e) <- load.(e) +. (x *. float_of_int j.Task.demand);
        if float_of_int j.Task.demand > capacity.(e) && x <> 0.0 then ok := false
      done)
    r.Lp.Ufpp_lp.tasks;
  Array.iteri (fun e l -> if l > capacity.(e) +. 1e-9 then ok := false) load;
  let obj = ref 0.0 in
  Array.iteri
    (fun i (j : Task.t) -> obj := !obj +. (j.Task.weight *. r.Lp.Ufpp_lp.solution.(i)))
    r.Lp.Ufpp_lp.tasks;
  !ok && Helpers.close_enough ~tol:1e-9 !obj r.Lp.Ufpp_lp.value

let mk ?(id = 0) first last d w =
  Task.make ~id ~first_edge:first ~last_edge:last ~demand:d ~weight:w

(* ---------- the network simplex on hand-built LPs ---------- *)

let simplex_known_2d () =
  (* max 3a + 5b s.t. 12a + 12b <= 18 on one edge -> b = 1, a = 1/2. *)
  let r = Lp.Ufpp_lp.solve (Path.create [| 18 |]) [ mk ~id:0 0 0 12 3.0; mk ~id:1 0 0 12 5.0 ] in
  Alcotest.(check bool) "value 6.5" true (Helpers.close_enough r.Lp.Ufpp_lp.value 6.5);
  Alcotest.(check bool) "a=1/2" true (Helpers.close_enough r.Lp.Ufpp_lp.solution.(0) 0.5);
  Alcotest.(check bool) "b=1" true (Helpers.close_enough r.Lp.Ufpp_lp.solution.(1) 1.0)

let simplex_degenerate () =
  (* Degenerate vertex: both boxes and both edges are tight at the
     optimum, and a zero-capacity edge keeps its slack at 0. *)
  let path = Path.create [| 2; 2; 1 |] in
  let r = Lp.Ufpp_lp.solve_scaled path ~scale:1.0 [ mk ~id:0 0 1 1 1.0; mk ~id:1 0 1 1 1.0 ] in
  Alcotest.(check bool) "value 2" true (Helpers.close_enough r.Lp.Ufpp_lp.value 2.0);
  let z =
    Lp.Ufpp_lp.upper_bound_residual path ~residual:[| 2; 0; 1 |]
      [ mk ~id:0 0 0 1 1.0; mk ~id:1 2 2 1 4.0; mk ~id:2 0 2 1 9.0 ]
  in
  Alcotest.(check bool) "residual value 5" true (Helpers.close_enough z 5.0)

let simplex_rejects_negative_rhs () =
  Alcotest.check_raises "negative residual"
    (Invalid_argument "Ufpp_lp: negative residual -1 on edge 0") (fun () ->
      ignore (Lp.Ufpp_lp.upper_bound_residual (Path.create [| 3 |]) ~residual:[| -1 |] []))

let simplex_solution_feasible =
  Helpers.seed_property ~count:100 "simplex output satisfies its constraints"
    (fun seed ->
      let path, tasks = degenerate_instance seed in
      feasible ~capacity:(scaled_capacity path 1.0) (Lp.Ufpp_lp.solve path tasks)
      && feasible ~capacity:(scaled_capacity path 0.5)
           (Lp.Ufpp_lp.solve_scaled path ~scale:0.5 tasks))

(* ---------- network simplex vs the dense reference ---------- *)

let simplex_matches_reference =
  Helpers.seed_property ~count:100 "sparse core = dense reference (flow form, degenerate)"
    (fun seed ->
      let path, tasks = degenerate_instance seed in
      Helpers.close_enough ~tol:1e-6 (Lp.Ufpp_lp.solve path tasks).Lp.Ufpp_lp.value
        (reference_value ~capacity:(scaled_capacity path 1.0) tasks))

let simplex_scaled_matches_reference =
  Helpers.seed_property ~count:100 "solve_scaled 0.5 = dense reference" (fun seed ->
      let path, tasks = degenerate_instance seed in
      Helpers.close_enough ~tol:1e-6
        (Lp.Ufpp_lp.solve_scaled path ~scale:0.5 tasks).Lp.Ufpp_lp.value
        (reference_value ~capacity:(scaled_capacity path 0.5) tasks))

let simplex_residual_matches_reference =
  Helpers.seed_property ~count:100 "upper_bound_residual = dense reference" (fun seed ->
      let path, tasks = degenerate_instance seed in
      let residual = residuals (Util.Prng.create (seed + 7)) path in
      Helpers.close_enough ~tol:1e-6
        (Lp.Ufpp_lp.upper_bound_residual path ~residual tasks)
        (reference_value ~capacity:(Array.map float_of_int residual) tasks))

let simplex_bounded_pure_flips () =
  (* Nothing binds but the boxes: every task reaches x = 1 by a bound flip
     alone, with no tree change. *)
  Obs.Metrics.enable ();
  let flips = counter "simplex.bound_flips" and iters = counter "simplex.iterations" in
  let r = Lp.Ufpp_lp.solve (Path.create [| 10; 10 |]) [ mk ~id:0 0 1 4 2.0; mk ~id:1 1 1 6 0.5 ] in
  let flips = counter "simplex.bound_flips" - flips and iters = counter "simplex.iterations" - iters in
  Obs.Metrics.disable ();
  Alcotest.(check bool) "value 2.5" true (Helpers.close_enough r.Lp.Ufpp_lp.value 2.5);
  Alcotest.(check int) "two flips" 2 flips;
  Alcotest.(check int) "every iteration a flip" 2 iters

let simplex_bounded_fixed_variable () =
  (* A task over its bottleneck is fixed at 0 even where the LP would take
     it fractionally, and the rest solves normally. *)
  let r = Lp.Ufpp_lp.solve (Path.create [| 10; 4 |]) [ mk ~id:0 0 1 6 100.0; mk ~id:1 0 0 10 1.0 ] in
  Alcotest.(check bool) "value 1" true (Helpers.close_enough r.Lp.Ufpp_lp.value 1.0);
  Alcotest.(check bool) "x0 fixed" true (r.Lp.Ufpp_lp.solution.(0) = 0.0)

(* ---------- UFPP LP ---------- *)

let ufpp_lp_upper_bounds_exact =
  Helpers.seed_property ~count:40 "LP >= exact UFPP >= exact SAP" (fun seed ->
      let path, tasks = Helpers.tiny_instance seed in
      let lp = Lp.Ufpp_lp.upper_bound path tasks in
      let ufpp = Ufpp.Exact_bb.value path tasks in
      let sap = Exact.Sap_brute.value path tasks in
      lp >= ufpp -. 1e-6 && ufpp >= sap -. 1e-9)

let ufpp_lp_saturates_single_edge () =
  (* One edge, two tasks: the LP is a fractional knapsack. *)
  let path = Path.create [| 10 |] in
  let mk id d w = Task.make ~id ~first_edge:0 ~last_edge:0 ~demand:d ~weight:w in
  let r = Lp.Ufpp_lp.solve path [ mk 0 6 6.0; mk 1 6 3.0 ] in
  (* x0 = 1, x1 = 4/6. *)
  Alcotest.(check bool) "value 8" true (Helpers.close_enough r.Lp.Ufpp_lp.value 8.0)

let ufpp_lp_unfit_task_zeroed () =
  let path = Path.create [| 4; 2 |] in
  let t = Task.make ~id:0 ~first_edge:0 ~last_edge:1 ~demand:3 ~weight:5.0 in
  let r = Lp.Ufpp_lp.solve path [ t ] in
  Alcotest.(check bool) "zero value" true (Helpers.close_enough r.Lp.Ufpp_lp.value 0.0);
  Alcotest.(check bool) "zero x" true (Helpers.close_enough r.Lp.Ufpp_lp.solution.(0) 0.0)

let ufpp_lp_scaled () =
  let path = Path.create [| 10 |] in
  let t = Task.make ~id:0 ~first_edge:0 ~last_edge:0 ~demand:10 ~weight:1.0 in
  let full = Lp.Ufpp_lp.solve path [ t ] in
  let half = Lp.Ufpp_lp.solve_scaled path ~scale:0.5 [ t ] in
  Alcotest.(check bool) "full takes task" true
    (Helpers.close_enough full.Lp.Ufpp_lp.value 1.0);
  Alcotest.(check bool) "half rejects (demand > scaled bottleneck)" true
    (Helpers.close_enough half.Lp.Ufpp_lp.value 0.0)

let ufpp_lp_matches_dense_reference =
  Helpers.seed_property ~count:40 "Ufpp_lp.solve = dense reference construction"
    (fun seed ->
      let path, tasks = Helpers.tiny_instance seed in
      Helpers.close_enough ~tol:1e-6 (Lp.Ufpp_lp.solve path tasks).Lp.Ufpp_lp.value
        (reference_value ~capacity:(scaled_capacity path 1.0) tasks))

let ufpp_lp_integral_when_disjoint () =
  (* Disjoint tasks: LP optimum equals total weight. *)
  let path = Path.create [| 4; 4; 4; 4 |] in
  let mk id first last = Task.make ~id ~first_edge:first ~last_edge:last ~demand:3 ~weight:2.0 in
  let r = Lp.Ufpp_lp.solve path [ mk 0 0 1; mk 1 2 3 ] in
  Alcotest.(check bool) "value 4" true (Helpers.close_enough r.Lp.Ufpp_lp.value 4.0)

(* Counter deltas of the warm-start outcomes over [f ()]. *)
let warm_counts f =
  Obs.Metrics.enable ();
  let restarts = counter "simplex.warm_restarts" and fallbacks = counter "simplex.warm_fallbacks" in
  let v = f () in
  let d = (counter "simplex.warm_restarts" - restarts, counter "simplex.warm_fallbacks" - fallbacks) in
  Obs.Metrics.disable ();
  (v, d)

let ufpp_lp_warm_fallback () =
  (* A sits at x = 1 and B carries the rest of the edge in the tree.
     Without A, the old tree would push B past its capacity: cold restart. *)
  let path = Path.create [| 10 |] in
  let a = mk ~id:0 0 0 6 6.0 and b = mk ~id:1 0 0 6 3.0 in
  let _, warm = Lp.Ufpp_lp.solve_scaled_warm path ~scale:1.0 [ a; b ] in
  let (r, _), (restarts, fallbacks) =
    warm_counts (fun () -> Lp.Ufpp_lp.solve_scaled_warm path ~scale:1.0 ?warm [ b ])
  in
  Alcotest.(check int) "one fallback" 1 fallbacks;
  Alcotest.(check int) "no warm restart" 0 restarts;
  Alcotest.(check bool) "value 3" true (Helpers.close_enough r.Lp.Ufpp_lp.value 3.0)

let ufpp_lp_warm_add () =
  (* A new task starts at 0, so the old tree keeps its flows. *)
  let path = Path.create [| 10 |] in
  let a = mk ~id:0 0 0 6 6.0 and b = mk ~id:1 0 0 6 3.0 in
  let _, warm = Lp.Ufpp_lp.solve_scaled_warm path ~scale:1.0 [ a; b ] in
  let (r, _), (restarts, fallbacks) =
    warm_counts (fun () ->
        Lp.Ufpp_lp.solve_scaled_warm path ~scale:1.0 ?warm [ a; b; mk ~id:2 0 0 2 4.0 ])
  in
  Alcotest.(check int) "one warm restart" 1 restarts;
  Alcotest.(check int) "no fallback" 0 fallbacks;
  (* A and C at 1, B takes the last 2 of 6. *)
  Alcotest.(check bool) "value 11" true (Helpers.close_enough r.Lp.Ufpp_lp.value 11.0)

(* A warm-started re-solve after a task delta must reach the same LP
   optimum as a cold solve of the patched instance — a warm basis buys
   pivots, never a different answer.  Chains deltas so the basis handed
   forward is itself the product of a warm solve, over both instance
   families; both warm branches must be taken along the way. *)
let warm_chain instance seed =
  let prng = Util.Prng.create (seed + 1) in
  let path, tasks = instance seed in
  let tasks = ref tasks in
  let next_id = ref 1000 in
  let warm = ref None in
  let ok = ref true in
  for _step = 1 to 6 do
    (match !tasks with
    | _ :: _ when Util.Prng.bool prng ->
        let ts = !tasks in
        let victim = List.nth ts (Util.Prng.int prng (List.length ts)) in
        tasks := List.filter (fun (j : Task.t) -> j.Task.id <> victim.Task.id) ts
    | _ ->
        let edges = Path.num_edges path in
        let first_edge = Util.Prng.int prng edges in
        let last_edge = first_edge + Util.Prng.int prng (edges - first_edge) in
        let b = Path.bottleneck path ~first:first_edge ~last:last_edge in
        let demand = 1 + Util.Prng.int prng b in
        let weight = 1.0 +. Util.Prng.float prng 9.0 in
        let id = !next_id in
        incr next_id;
        tasks := Task.make ~id ~first_edge ~last_edge ~demand ~weight :: !tasks);
    let r_warm, w = Lp.Ufpp_lp.solve_scaled_warm path ~scale:1.0 ?warm:!warm !tasks in
    warm := w;
    let r_cold = Lp.Ufpp_lp.solve_scaled path ~scale:1.0 !tasks in
    if not (Helpers.close_enough ~tol:1e-6 r_warm.Lp.Ufpp_lp.value r_cold.Lp.Ufpp_lp.value)
    then ok := false
  done;
  !ok

let ufpp_lp_warm_matches_cold () =
  let ok, (restarts, fallbacks) =
    warm_counts (fun () ->
        List.for_all
          (fun seed -> warm_chain Helpers.tiny_instance seed && warm_chain degenerate_instance seed)
          (List.init 150 (fun i -> 7919 * i)))
  in
  Alcotest.(check bool) "warm = cold on every chain" true ok;
  Alcotest.(check bool) "some solves restarted warm" true (restarts > 0);
  Alcotest.(check bool) "some solves fell back cold" true (fallbacks > 0)

let () =
  Alcotest.run "lp"
    [
      ( "simplex",
        [
          case "known 2d" simplex_known_2d;
          case "degenerate" simplex_degenerate;
          case "negative rhs" simplex_rejects_negative_rhs;
          simplex_solution_feasible;
        ] );
      ( "simplex vs reference",
        [
          simplex_matches_reference;
          simplex_scaled_matches_reference;
          simplex_residual_matches_reference;
          case "pure bound flips" simplex_bounded_pure_flips;
          case "fixed variable" simplex_bounded_fixed_variable;
        ] );
      ( "ufpp_lp",
        [
          ufpp_lp_upper_bounds_exact;
          case "fractional knapsack" ufpp_lp_saturates_single_edge;
          case "unfit task zeroed" ufpp_lp_unfit_task_zeroed;
          case "scaled" ufpp_lp_scaled;
          ufpp_lp_matches_dense_reference;
          case "integral disjoint" ufpp_lp_integral_when_disjoint;
          case "warm fallback after removing an x = 1 task" ufpp_lp_warm_fallback;
          case "warm restart after adding a task" ufpp_lp_warm_add;
          case "warm-started re-solve = cold re-solve" ufpp_lp_warm_matches_cold;
        ] );
    ]
