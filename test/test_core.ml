module Task = Core.Task
module Path = Core.Path

let case = Helpers.case

let mk ?(w = 1.0) id first last d =
  Task.make ~id ~first_edge:first ~last_edge:last ~demand:d ~weight:w

(* ---------- Task ---------- *)

let task_validation () =
  Alcotest.check_raises "reversed range" (Invalid_argument "Task.make: bad edge range")
    (fun () -> ignore (mk 0 3 1 1));
  Alcotest.check_raises "zero demand"
    (Invalid_argument "Task.make: demand must be positive") (fun () ->
      ignore (mk 0 0 1 0));
  Alcotest.check_raises "negative weight"
    (Invalid_argument "Task.make: weight must be non-negative") (fun () ->
      ignore (Task.make ~id:0 ~first_edge:0 ~last_edge:1 ~demand:1 ~weight:(-1.0)))

let task_overlaps () =
  let a = mk 0 0 2 1 and b = mk 1 2 4 1 and c = mk 2 3 5 1 in
  Alcotest.(check bool) "share edge 2" true (Task.overlaps a b);
  Alcotest.(check bool) "disjoint" false (Task.overlaps a c);
  Alcotest.(check bool) "symmetric" true (Task.overlaps b a);
  Alcotest.(check bool) "self" true (Task.overlaps a a)

let task_uses_span () =
  let t = mk 0 2 5 3 in
  Alcotest.(check bool) "uses 2" true (Task.uses t 2);
  Alcotest.(check bool) "uses 5" true (Task.uses t 5);
  Alcotest.(check bool) "not 1" false (Task.uses t 1);
  Alcotest.(check int) "span" 4 (Task.span t)

let task_aggregates () =
  let ts = [ mk ~w:1.5 0 0 1 2; mk ~w:2.5 1 0 1 3 ] in
  Alcotest.(check bool) "weight" true (Helpers.close_enough (Task.weight_of ts) 4.0);
  Alcotest.(check int) "demand" 5 (Task.demand_of ts)

(* ---------- Path ---------- *)

let path_bottleneck () =
  let p = Path.create [| 5; 2; 7; 3 |] in
  Alcotest.(check int) "whole" 2 (Path.bottleneck p ~first:0 ~last:3);
  Alcotest.(check int) "suffix" 3 (Path.bottleneck p ~first:2 ~last:3);
  Alcotest.(check int) "single" 7 (Path.bottleneck p ~first:2 ~last:2);
  Alcotest.(check int) "task" 2 (Path.bottleneck_of p (mk 0 0 2 1));
  Alcotest.(check int) "min" 2 (Path.min_capacity p);
  Alcotest.(check int) "max" 7 (Path.max_capacity p)

let path_clip () =
  let p = Path.clip (Path.create [| 5; 2; 7 |]) 4 in
  Alcotest.(check int) "clipped" 4 (Path.capacity p 0);
  Alcotest.(check int) "kept" 2 (Path.capacity p 1);
  Alcotest.(check int) "clipped high" 4 (Path.capacity p 2)

let path_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Path.create: no edges") (fun () ->
      ignore (Path.create [||]));
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Path.create: non-positive capacity") (fun () ->
      ignore (Path.create [| 3; 0 |]))

let path_capacities_copy () =
  let src = [| 4; 5 |] in
  let p = Path.create src in
  src.(0) <- 99;
  Alcotest.(check int) "input copied" 4 (Path.capacity p 0);
  let out = Path.capacities p in
  out.(0) <- 77;
  Alcotest.(check int) "output copied" 4 (Path.capacity p 0)

(* ---------- Instance ---------- *)

let path_bottleneck_edge () =
  let p = Path.create [| 5; 2; 7 |] in
  Alcotest.(check int) "argmin edge" 1 (Path.bottleneck_edge p ~first:0 ~last:2);
  Alcotest.(check int) "single" 2 (Path.bottleneck_edge p ~first:2 ~last:2)

let classify_residual () =
  let p = Path.create [| 8; 5 |] in
  Alcotest.(check int) "residual" 2 (Core.Classify.residual p (mk 0 0 1 3))

let ring_task_validation () =
  Alcotest.(check bool) "src = dst rejected" true
    (try
       ignore (Core.Ring.make_task ~id:0 ~src:1 ~dst:1 ~demand:1 ~weight:1.0 ~t_edges:4);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "tiny ring rejected" true
    (try
       ignore (Core.Ring.create [| 1; 1 |] []);
       false
     with Invalid_argument _ -> true)

let load_profile_matches_naive =
  Helpers.seed_property "load_profile = naive" (fun seed ->
      let path, tasks = Helpers.tiny_instance seed in
      let load = Core.Instance.load_profile path tasks in
      let m = Path.num_edges path in
      let ok = ref true in
      for e = 0 to m - 1 do
        let naive =
          List.fold_left
            (fun acc (j : Task.t) -> if Task.uses j e then acc + j.Task.demand else acc)
            0 tasks
        in
        if load.(e) <> naive then ok := false
      done;
      !ok)

(* ---------- Checker: acceptance and failure injection ---------- *)

let checker_accepts_valid () =
  let p = Path.create [| 4; 4; 4 |] in
  let sol = [ (mk 0 0 1 2, 0); (mk 1 1 2 2, 2); (mk 2 2 2 2, 0) ] in
  Helpers.assert_feasible_sap p sol

let checker_rejects_vertical_overlap () =
  let p = Path.create [| 4; 4 |] in
  let sol = [ (mk 0 0 1 2, 0); (mk 1 1 1 2, 1) ] in
  Alcotest.(check bool) "rejected" true
    (Result.is_error (Core.Checker.sap_feasible p sol))

let checker_rejects_capacity () =
  let p = Path.create [| 4; 2 |] in
  let sol = [ (mk 0 0 1 2, 1) ] in
  Alcotest.(check bool) "rejected" true
    (Result.is_error (Core.Checker.sap_feasible p sol))

let checker_rejects_duplicate () =
  let p = Path.create [| 4 |] in
  let t = mk 0 0 0 1 in
  Alcotest.(check bool) "rejected" true
    (Result.is_error (Core.Checker.sap_feasible p [ (t, 0); (t, 2) ]))

let checker_rejects_negative_height () =
  let p = Path.create [| 4 |] in
  Alcotest.(check bool) "rejected" true
    (Result.is_error (Core.Checker.sap_feasible p [ (mk 0 0 0 1, -1) ]))

let checker_rejects_off_path () =
  let p = Path.create [| 4 |] in
  Alcotest.(check bool) "rejected" true
    (Result.is_error (Core.Checker.sap_feasible p [ (mk 0 0 3 1, 0) ]))

(* [Task.make] refuses to build tasks with a negative or inverted edge
   range, so forge records with the same memory layout to prove the
   checker validates ranges itself instead of trusting the type.  The
   tuple below matches the field order of [Core.Task.t]. *)
let forge_task ~id ~first_edge ~last_edge ~demand ~weight : Task.t =
  Obj.magic (id, first_edge, last_edge, demand, weight)

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let checker_rejects_negative_first_edge () =
  let p = Path.create [| 4; 4 |] in
  let t = forge_task ~id:3 ~first_edge:(-1) ~last_edge:1 ~demand:1 ~weight:1.0 in
  (match Core.Checker.sap_feasible p [ (t, 0) ] with
  | Ok () -> Alcotest.fail "negative first_edge accepted"
  | Error msg ->
      Alcotest.(check bool) "names the failure" true
        (contains_sub msg "starts before"));
  Alcotest.(check bool) "ufpp rejects too" true
    (Result.is_error (Core.Checker.ufpp_feasible p [ t ]))

let checker_rejects_inverted_range () =
  let p = Path.create [| 4; 4; 4 |] in
  let t = forge_task ~id:3 ~first_edge:2 ~last_edge:0 ~demand:1 ~weight:1.0 in
  (match Core.Checker.sap_feasible p [ (t, 0) ] with
  | Ok () -> Alcotest.fail "inverted range accepted"
  | Error msg ->
      Alcotest.(check bool) "names the failure" true
        (contains_sub msg "inverted"));
  Alcotest.(check bool) "ufpp rejects too" true
    (Result.is_error (Core.Checker.ufpp_feasible p [ t ]))

let checker_within_bound () =
  let p = Path.create [| 8; 8 |] in
  let sol = [ (mk 0 0 1 3, 2) ] in
  Helpers.check_ok "within 8" (Core.Checker.sap_feasible_within p ~bound:8 sol);
  Alcotest.(check bool) "violates 4" true
    (Result.is_error (Core.Checker.sap_feasible_within p ~bound:4 sol))

let checker_ufpp () =
  let p = Path.create [| 3; 3 |] in
  Helpers.assert_feasible_ufpp p [ mk 0 0 1 2; mk 1 1 1 1 ];
  Alcotest.(check bool) "overload rejected" true
    (Result.is_error (Core.Checker.ufpp_feasible p [ mk 0 0 1 2; mk 1 0 1 2 ]))

let checker_subset_of () =
  let a = mk 0 0 1 1 and b = mk 1 0 1 2 in
  Alcotest.(check bool) "subset" true (Core.Checker.subset_of [ a ] [ a; b ]);
  Alcotest.(check bool) "foreign task" false (Core.Checker.subset_of [ mk 7 0 0 1 ] [ a; b ]);
  Alcotest.(check bool) "mutated task" false
    (Core.Checker.subset_of [ Task.with_weight a 9.0 ] [ a; b ])

(* ---------- Solution ---------- *)

let solution_lift_union () =
  let p = Path.create [| 8; 8 |] in
  let s1 = [ (mk 0 0 1 2, 0) ] and s2 = [ (mk 1 0 1 2, 4) ] in
  let u = Core.Solution.union s1 (Core.Solution.lift s2 2) in
  Helpers.assert_feasible_sap p u;
  Alcotest.(check int) "lifted height" 6 (Core.Solution.sap_height u (mk 1 0 1 2))

let solution_union_rejects_dup () =
  let t = mk 0 0 1 2 in
  Alcotest.check_raises "duplicate union"
    (Invalid_argument "Solution.union: task sets not disjoint") (fun () ->
      ignore (Core.Solution.union [ (t, 0) ] [ (t, 4) ]))

let solution_makespan () =
  let p = Path.create [| 8; 8; 8 |] in
  let sol = [ (mk 0 0 1 2, 1); (mk 1 1 2 3, 4) ] in
  let ms = Core.Solution.makespan p sol in
  Alcotest.(check int) "edge0" 3 ms.(0);
  Alcotest.(check int) "edge1" 7 ms.(1);
  Alcotest.(check int) "edge2" 7 ms.(2);
  Alcotest.(check int) "max" 7 (Core.Solution.max_makespan p sol);
  Alcotest.(check bool) "7-packable" true (Core.Solution.is_packable p ~bound:7 sol);
  Alcotest.(check bool) "not 6-packable" false (Core.Solution.is_packable p ~bound:6 sol)

(* ---------- Classify ---------- *)

let classify_split3 () =
  let p = Path.create [| 8; 8 |] in
  let small = mk 0 0 1 2 (* 2 <= 0.25*8 *)
  and medium = mk 1 0 1 3 (* 0.25*8 < 3 <= 0.5*8 *)
  and large = mk 2 0 1 5 in
  let s = Core.Classify.split3 p ~delta:0.25 ~large_frac:0.5 [ small; medium; large ] in
  Alcotest.(check int) "small" 1 (List.length s.Core.Classify.small);
  Alcotest.(check int) "medium" 1 (List.length s.Core.Classify.medium);
  Alcotest.(check int) "large" 1 (List.length s.Core.Classify.large)

let classify_strip_bands () =
  let p = Path.create [| 4; 9; 17 |] in
  let bands =
    Core.Classify.strip_bands p [ mk 0 0 0 1 (* b=4,t=2 *); mk 1 1 1 1 (* b=9,t=3 *); mk 2 2 2 1 (* b=17,t=4 *); mk 3 0 2 1 (* b=4,t=2 *) ]
  in
  Alcotest.(check (list int)) "band indices" [ 2; 3; 4 ] (List.map fst bands);
  Alcotest.(check int) "band 2 size" 2 (List.length (List.assoc 2 bands))

let classify_power_bands_multiplicity =
  Helpers.seed_property "each task in exactly ell bands" (fun seed ->
      let path, tasks = Helpers.tiny_instance seed in
      let ell = 1 + (seed mod 3) in
      let bands = Core.Classify.power_bands path ~ell tasks in
      let count t =
        List.fold_left
          (fun acc (_, js) ->
            acc + List.length (List.filter (fun (j : Task.t) -> j.Task.id = t) js))
          0 bands
      in
      List.for_all (fun (j : Task.t) -> count j.Task.id = ell) tasks)

let classify_power_band_ranges =
  Helpers.seed_property "band k holds 2^k <= b < 2^(k+ell)" (fun seed ->
      let path, tasks = Helpers.tiny_instance seed in
      let ell = 1 + (seed mod 3) in
      let bands = Core.Classify.power_bands path ~ell tasks in
      List.for_all
        (fun (k, js) ->
          List.for_all
            (fun j ->
              let b = Path.bottleneck_of path j in
              (k >= 0 || b < 1 lsl (k + ell))
              && (k < 0 || (b >= 1 lsl k && b < 1 lsl (k + ell))))
            js)
        bands)

(* ---------- Instance_stats ---------- *)

let stats_fractions_sum =
  Helpers.seed_property "stats class fractions sum to fit tasks" (fun seed ->
      let path, tasks = Helpers.tiny_instance ~max_tasks:15 seed in
      let s = Core.Instance_stats.compute path tasks in
      let n = float_of_int s.Core.Instance_stats.num_tasks in
      let fit = n -. float_of_int s.Core.Instance_stats.unfit_tasks in
      Helpers.close_enough ~tol:1e-6
        ((s.Core.Instance_stats.small_fraction
         +. s.Core.Instance_stats.medium_fraction
         +. s.Core.Instance_stats.large_fraction)
        *. Float.max 1.0 n)
        fit)

let stats_band_counts =
  Helpers.seed_property "stats band counts total the fit tasks" (fun seed ->
      let path, tasks = Helpers.tiny_instance ~max_tasks:15 seed in
      let s = Core.Instance_stats.compute path tasks in
      List.fold_left (fun acc (_, c) -> acc + c) 0 s.Core.Instance_stats.bottleneck_bands
      = s.Core.Instance_stats.num_tasks - s.Core.Instance_stats.unfit_tasks)

let stats_known_instance () =
  let path = Path.create [| 8; 4 |] in
  let tasks = [ mk 0 0 1 1 (* small: 1 <= 4/4 *); mk 1 0 1 3 (* large: 3 > 2 *); mk 2 1 1 9 (* unfit *) ] in
  let s = Core.Instance_stats.compute path tasks in
  Alcotest.(check int) "unfit" 1 s.Core.Instance_stats.unfit_tasks;
  Alcotest.(check int) "load" 13 s.Core.Instance_stats.max_load;
  Alcotest.(check bool) "small third" true
    (Helpers.close_enough s.Core.Instance_stats.small_fraction (1.0 /. 3.0));
  Alcotest.(check bool) "large third" true
    (Helpers.close_enough s.Core.Instance_stats.large_fraction (1.0 /. 3.0))

(* ---------- Gravity ---------- *)

let gravity_drops () =
  let p = Path.create [| 10; 10 |] in
  let sol = [ (mk 0 0 1 2, 5); (mk 1 0 0 3, 1) ] in
  let settled = Core.Gravity.settle p sol in
  Helpers.assert_feasible_sap p settled;
  Alcotest.(check bool) "is settled" true (Core.Gravity.is_settled p settled);
  Alcotest.(check int) "lower task at 0" 0 (Core.Solution.sap_height settled (mk 1 0 0 3));
  Alcotest.(check int) "upper rests on lower" 3 (Core.Solution.sap_height settled (mk 0 0 1 2))

let gravity_preserves =
  Helpers.seed_property ~count:40 "gravity preserves feasibility/weight, never lifts"
    (fun seed ->
      let path, tasks = Helpers.tiny_instance seed in
      match Exact.Sap_brute.realizable path tasks with
      | None -> true (* nothing to settle *)
      | Some sol ->
          let settled = Core.Gravity.settle path sol in
          Result.is_ok (Core.Checker.sap_feasible path settled)
          && Core.Gravity.is_settled path settled
          && Helpers.close_enough
               (Core.Solution.sap_weight settled)
               (Core.Solution.sap_weight sol)
          && List.for_all
               (fun (j, h) -> h <= Core.Solution.sap_height sol j)
               settled)

let gravity_idempotent =
  Helpers.seed_property ~count:30 "settle is idempotent" (fun seed ->
      let path, tasks = Helpers.tiny_instance seed in
      match Exact.Sap_brute.realizable path tasks with
      | None -> true
      | Some sol ->
          let s1 = Core.Gravity.settle path sol in
          let s2 = Core.Gravity.settle path s1 in
          Core.Solution.sort_by_id s1 = Core.Solution.sort_by_id s2)

(* ---------- Ring ---------- *)

let ring_route_complement () =
  let m = 6 in
  for src = 0 to m - 1 do
    for dst = 0 to m - 1 do
      if src <> dst then begin
        let cw = Core.Ring.edges_of_route ~m ~src ~dst Core.Ring.Cw in
        let ccw = Core.Ring.edges_of_route ~m ~src ~dst Core.Ring.Ccw in
        Alcotest.(check int)
          (Printf.sprintf "%d->%d partition" src dst)
          m
          (List.length cw + List.length ccw);
        List.iter
          (fun e ->
            Alcotest.(check bool) "disjoint" false (List.mem e ccw))
          cw
      end
    done
  done

let ring_cut_roundtrip () =
  let caps = [| 5; 3; 7; 4; 6 |] in
  let tk src dst = Core.Ring.make_task ~id:0 ~src ~dst ~demand:2 ~weight:1.0 ~t_edges:5 in
  let r = Core.Ring.create caps [ tk 0 2; tk 3 1; tk 4 2 ] in
  let cut_edge = 1 in
  let path, path_tasks, _back = Core.Ring.cut r ~cut_edge in
  Alcotest.(check int) "edges" 4 (Path.num_edges path);
  (* No path task may use an edge mapping back to the cut edge; capacities
     must match the rotation. *)
  Alcotest.(check int) "rotated cap 0" caps.(2) (Path.capacity path 0);
  Alcotest.(check int) "rotated cap 3" caps.((cut_edge + 1 + 3) mod 5) (Path.capacity path 3);
  List.iter
    (fun (j : Task.t) ->
      Alcotest.(check bool) "fits path" true (j.Task.last_edge < 4))
    path_tasks

let ring_to_ring_solution () =
  (* Solving on the cut path and mapping back yields a feasible ring
     solution whose routes avoid the cut edge. *)
  let caps = [| 6; 2; 6; 6 |] in
  let tk id src dst = Core.Ring.make_task ~id ~src ~dst ~demand:2 ~weight:1.0 ~t_edges:4 in
  let r = Core.Ring.create caps [ tk 0 0 2; tk 1 3 1 ] in
  let cut_edge = 1 in
  let path, path_tasks, back = Core.Ring.cut r ~cut_edge in
  let sol = Exact.Sap_brute.solve path path_tasks in
  let ring_sol = Core.Ring.to_ring_solution r ~cut_edge sol back in
  Helpers.check_ok "mapped back feasible" (Core.Ring.feasible r ring_sol);
  List.iter
    (fun ((tk : Core.Ring.task), _, dir) ->
      let edges =
        Core.Ring.edges_of_route ~m:4 ~src:tk.Core.Ring.src ~dst:tk.Core.Ring.dst dir
      in
      Alcotest.(check bool) "avoids cut edge" false (List.mem cut_edge edges))
    ring_sol

let ring_feasible_checker () =
  let caps = [| 4; 4; 4 |] in
  let tk id src dst d = Core.Ring.make_task ~id ~src ~dst ~demand:d ~weight:1.0 ~t_edges:3 in
  let r = Core.Ring.create caps [ tk 0 0 1 2; tk 1 1 2 2 ] in
  let t0 = r.Core.Ring.tasks.(0) and t1 = r.Core.Ring.tasks.(1) in
  Helpers.check_ok "disjoint heights ok"
    (Core.Ring.feasible r [ (t0, 0, Core.Ring.Cw); (t1, 2, Core.Ring.Cw) ]);
  (* Cw routes don't even share an edge, so equal heights are fine too. *)
  Helpers.check_ok "cw routes disjoint"
    (Core.Ring.feasible r [ (t0, 0, Core.Ring.Cw); (t1, 0, Core.Ring.Cw) ]);
  (* Ccw route of t1 covers edges 2,0 — shares edge 0 with t0's Cw route. *)
  Alcotest.(check bool) "overlap rejected" true
    (Result.is_error
       (Core.Ring.feasible r [ (t0, 0, Core.Ring.Cw); (t1, 1, Core.Ring.Ccw) ]))

let () =
  Alcotest.run "core"
    [
      ( "task",
        [
          case "validation" task_validation;
          case "overlaps" task_overlaps;
          case "uses/span" task_uses_span;
          case "aggregates" task_aggregates;
        ] );
      ( "path",
        [
          case "bottleneck" path_bottleneck;
          case "clip" path_clip;
          case "validation" path_validation;
          case "copies" path_capacities_copy;
        ] );
      ( "instance",
        [
          case "bottleneck edge" path_bottleneck_edge;
          case "residual" classify_residual;
          case "ring validation" ring_task_validation;
          load_profile_matches_naive;
        ] );
      ( "checker",
        [
          case "accepts valid" checker_accepts_valid;
          case "vertical overlap" checker_rejects_vertical_overlap;
          case "capacity" checker_rejects_capacity;
          case "duplicate" checker_rejects_duplicate;
          case "negative height" checker_rejects_negative_height;
          case "off path" checker_rejects_off_path;
          case "negative first edge" checker_rejects_negative_first_edge;
          case "inverted range" checker_rejects_inverted_range;
          case "within bound" checker_within_bound;
          case "ufpp" checker_ufpp;
          case "subset_of" checker_subset_of;
        ] );
      ( "solution",
        [
          case "lift/union" solution_lift_union;
          case "union dup" solution_union_rejects_dup;
          case "makespan" solution_makespan;
        ] );
      ( "classify",
        [
          case "split3" classify_split3;
          case "strip bands" classify_strip_bands;
          classify_power_bands_multiplicity;
          classify_power_band_ranges;
        ] );
      ( "instance_stats",
        [
          stats_fractions_sum;
          stats_band_counts;
          case "known instance" stats_known_instance;
        ] );
      ( "gravity",
        [ case "drops" gravity_drops; gravity_preserves; gravity_idempotent ] );
      ( "ring",
        [
          case "route complement" ring_route_complement;
          case "cut roundtrip" ring_cut_roundtrip;
          case "to_ring_solution" ring_to_ring_solution;
          case "feasible checker" ring_feasible_checker;
        ] );
    ]
