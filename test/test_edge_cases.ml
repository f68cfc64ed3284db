(* Edge cases that the main suites' generators rarely reach: boundary
   capacities, wrap-around ring routes, degenerate LPs, exact ties. *)

module Task = Core.Task
module Path = Core.Path
module Ring = Core.Ring

let case = Helpers.case

let mk ?(w = 1.0) id first last d =
  Task.make ~id ~first_edge:first ~last_edge:last ~demand:d ~weight:w

(* ---------- exact-fit boundaries ---------- *)

let exact_full_column () =
  (* Three tasks exactly filling one edge: feasible, and removing capacity
     by one breaks it. *)
  let ts = [ mk 0 0 0 3; mk 1 0 0 3; mk 2 0 0 3 ] in
  (match Exact.Sap_brute.realizable (Path.create [| 9 |]) ts with
  | Some sol -> Helpers.assert_feasible_sap (Path.create [| 9 |]) sol
  | None -> Alcotest.fail "exact fill should be realizable");
  Alcotest.(check bool) "capacity 8 insufficient" true
    (Exact.Sap_brute.realizable (Path.create [| 8 |]) ts = None)

let task_filling_whole_capacity () =
  let p = Path.create [| 5; 5 |] in
  let t = mk 0 0 1 5 in
  let sol = Sap.Combine.solve p [ t ] in
  Alcotest.(check int) "taken at ground" 0 (Core.Solution.sap_height sol t)

let single_edge_path () =
  (* m = 1: SAP degenerates to knapsack (OPT = 11 via the two d=5 tasks).
     The approximation may return the single d=9 task (weight 10) instead —
     a ratio of 1.1, well within Theorem 4 — but never less. *)
  let p = Path.create [| 10 |] in
  let ts = [ mk ~w:6.0 0 0 0 5; mk ~w:5.0 1 0 0 5; mk ~w:10.0 2 0 0 9 ] in
  let sol = Sap.Combine.solve p ts in
  Helpers.assert_feasible_sap p sol;
  Alcotest.(check bool) "at least the heaviest single task" true
    (Core.Solution.sap_weight sol >= 10.0 -. 1e-9);
  Alcotest.(check bool) "exact oracle finds 11" true
    (Helpers.close_enough (Exact.Sap_brute.value p ts) 11.0)

let zero_weight_tasks () =
  let p = Path.create [| 4; 4 |] in
  let ts = [ Task.make ~id:0 ~first_edge:0 ~last_edge:1 ~demand:2 ~weight:0.0 ] in
  let sol = Sap.Combine.solve p ts in
  Helpers.assert_feasible_sap p sol

(* ---------- ring wrap-around ---------- *)

let ring_wrap_route () =
  (* src > dst: the clockwise route wraps past edge m-1. *)
  let cw = Ring.edges_of_route ~m:5 ~src:3 ~dst:1 Ring.Cw in
  Alcotest.(check (list int)) "wraps through 4 and 0" [ 3; 4; 0 ] cw;
  let ccw = Ring.edges_of_route ~m:5 ~src:3 ~dst:1 Ring.Ccw in
  Alcotest.(check (list int)) "complement" [ 1; 2 ] ccw

let ring_cut_at_last_edge () =
  let caps = [| 4; 4; 4; 2 |] in
  let tk = Ring.make_task ~id:0 ~src:0 ~dst:2 ~demand:2 ~weight:3.0 ~t_edges:4 in
  let r = Ring.create caps [ tk ] in
  let rep = Sap.Ring_algo.solve_report r in
  Alcotest.(check int) "cuts edge 3" 3 rep.Sap.Ring_algo.cut_edge;
  Helpers.check_ok "feasible" (Ring.feasible r rep.Sap.Ring_algo.solution);
  Alcotest.(check bool) "takes the task" true
    (Helpers.close_enough (Ring.solution_weight rep.Sap.Ring_algo.solution) 3.0)

let ring_task_spanning_nearly_all () =
  (* A task whose short route is a single edge and long route is m-1
     edges. *)
  let caps = [| 10; 2; 2; 2 |] in
  let tk = Ring.make_task ~id:0 ~src:0 ~dst:1 ~demand:8 ~weight:5.0 ~t_edges:4 in
  let r = Ring.create caps [ tk ] in
  let sol = Exact.Ring_brute.solve r in
  (* Only the clockwise single-edge route over capacity 10 fits d = 8. *)
  (match sol with
  | [ (_, h, dir) ] ->
      Alcotest.(check bool) "cw" true (dir = Ring.Cw);
      Alcotest.(check bool) "h <= 2" true (h <= 2)
  | _ -> Alcotest.fail "expected exactly one placement");
  Helpers.check_ok "feasible" (Ring.feasible r sol)

(* ---------- LP / simplex degeneracies ---------- *)

let simplex_zero_objective () =
  (* Zero-weight tasks: nothing prices in, the optimum is 0. *)
  let r = Lp.Ufpp_lp.solve (Path.create [| 3 |]) [ mk ~w:0.0 0 0 0 1; mk ~w:0.0 1 0 0 2 ] in
  Alcotest.(check bool) "value 0" true (Helpers.close_enough r.Lp.Ufpp_lp.value 0.0)

let simplex_no_rows_bounded_by_boxes () =
  (* Capacity never binds: the boxes x <= 1 alone bound the optimum. *)
  let r = Lp.Ufpp_lp.solve (Path.create [| 5 |]) [ mk ~w:1.0 0 0 0 1; mk ~w:2.0 1 0 0 2 ] in
  Alcotest.(check bool) "value 3" true (Helpers.close_enough r.Lp.Ufpp_lp.value 3.0)

let lp_empty_tasks () =
  let p = Path.create [| 3 |] in
  Alcotest.(check bool) "zero bound" true
    (Helpers.close_enough (Lp.Ufpp_lp.upper_bound p []) 0.0)

(* ---------- knapsack ties and trivia ---------- *)

let knapsack_ties () =
  (* Two optimal solutions with equal profit: any of them is fine, but the
     DP must return one of exactly that profit. *)
  let items =
    [
      Knapsack.make_item ~index:0 ~size:5 ~profit:10.0;
      Knapsack.make_item ~index:1 ~size:5 ~profit:10.0;
      Knapsack.make_item ~index:2 ~size:10 ~profit:10.0;
    ]
  in
  let sol = Knapsack.solve_exact_by_size ~capacity:10 items in
  Alcotest.(check bool) "profit 20" true
    (Helpers.close_enough (Knapsack.total_profit sol) 20.0)

let knapsack_zero_capacity () =
  let items = [ Knapsack.make_item ~index:0 ~size:1 ~profit:5.0 ] in
  Alcotest.(check int) "nothing" 0
    (List.length (Knapsack.solve_exact_by_size ~capacity:0 items))

(* ---------- strip pack at band boundaries ---------- *)

let strip_pack_exact_power_bottleneck () =
  (* Bottleneck exactly 2^t: the band index must be t, the strip [2^(t-1), 2^t). *)
  let p = Path.uniform ~edges:3 ~capacity:16 in
  let t = mk 0 0 2 2 in
  let sol =
    Sap.Small.strip_pack ~rounding:`Local_ratio ~prng:(Util.Prng.create 1) p [ t ]
  in
  match sol with
  | [ (_, h) ] ->
      Alcotest.(check bool) "in [8,16)" true (8 <= h && h + 2 <= 16)
  | _ -> Alcotest.fail "task should be scheduled"

let elevator_band_with_single_task () =
  let p = Path.uniform ~edges:2 ~capacity:16 in
  let t = mk ~w:5.0 0 0 1 6 in
  let r = Sap.Elevator.solve ~k:4 ~ell:1 ~q:2 p [ t ] in
  Alcotest.(check bool) "takes it" true
    (Helpers.close_enough (Core.Solution.sap_weight r.Sap.Elevator.solution) 5.0);
  Alcotest.(check bool) "elevated" true
    (List.for_all (fun (_, h) -> h >= 4) r.Sap.Elevator.solution)

(* ---------- io: weight precision ---------- *)

let io_weight_precision () =
  let p = Path.create [| 4 |] in
  let t = Task.make ~id:0 ~first_edge:0 ~last_edge:0 ~demand:1 ~weight:(1.0 /. 3.0) in
  let s = Sap_io.Instance_io.instance_to_string p [ t ] in
  match Sap_io.Instance_io.instance_of_string s with
  | Ok (_, [ t' ]) ->
      Alcotest.(check bool) "exact float round-trip" true
        (t'.Task.weight = 1.0 /. 3.0)
  | _ -> Alcotest.fail "round trip failed"

(* ---------- gravity chain ---------- *)

let gravity_chain_collapses () =
  (* A tower with gaps: gravity must close every gap bottom-up. *)
  let p = Path.uniform ~edges:1 ~capacity:100 in
  let t1 = mk 0 0 0 5 and t2 = mk 1 0 0 5 and t3 = mk 2 0 0 5 in
  let settled = Core.Gravity.settle p [ (t1, 10); (t2, 30); (t3, 60) ] in
  let heights = List.sort compare (List.map snd settled) in
  Alcotest.(check (list int)) "compacted" [ 0; 5; 10 ] heights

let () =
  Alcotest.run "edge_cases"
    [
      ( "boundaries",
        [
          case "exact full column" exact_full_column;
          case "full-capacity task" task_filling_whole_capacity;
          case "single edge path" single_edge_path;
          case "zero weight" zero_weight_tasks;
        ] );
      ( "ring_wrap",
        [
          case "wrap route" ring_wrap_route;
          case "cut at last edge" ring_cut_at_last_edge;
          case "asymmetric routes" ring_task_spanning_nearly_all;
        ] );
      ( "lp",
        [
          case "zero objective" simplex_zero_objective;
          case "box-only rows" simplex_no_rows_bounded_by_boxes;
          case "empty tasks" lp_empty_tasks;
        ] );
      ( "knapsack",
        [ case "ties" knapsack_ties; case "zero capacity" knapsack_zero_capacity ] );
      ( "bands",
        [
          case "power-of-two bottleneck" strip_pack_exact_power_bottleneck;
          case "single-task elevator" elevator_band_with_single_task;
        ] );
      ("io", [ case "weight precision" io_weight_precision ]);
      ("gravity", [ case "chain collapses" gravity_chain_collapses ]);
    ]
