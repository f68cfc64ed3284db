module Task = Core.Task
module Path = Core.Path

let case = Helpers.case

let band_instance ?(b = 16) seed =
  let g = Util.Prng.create seed in
  let edges = 3 + Util.Prng.int g 6 in
  let caps = Array.init edges (fun _ -> b + Util.Prng.int g b) in
  let path = Path.create caps in
  let n = 3 + Util.Prng.int g 10 in
  let tasks = Gen.Workloads.small_tasks ~prng:g ~path ~n ~delta:0.25 () in
  (path, tasks)

(* ---------- solve_band ---------- *)

let band_packable_lp =
  Helpers.seed_property ~count:40 "LP band solution is B/2-packable" (fun seed ->
      let path, tasks = band_instance seed in
      let prng = Util.Prng.create (seed + 1) in
      let sol, _ = Sap.Small.solve_band ~b:16 ~rounding:(`Lp 8) ~prng path tasks in
      Result.is_ok (Core.Checker.sap_feasible_within path ~bound:8 sol)
      && Core.Checker.subset_of (Core.Solution.sap_tasks sol) tasks)

let band_packable_local_ratio =
  Helpers.seed_property ~count:40 "local-ratio band solution is B/2-packable"
    (fun seed ->
      let path, tasks = band_instance seed in
      let prng = Util.Prng.create (seed + 1) in
      let sol, _ = Sap.Small.solve_band ~b:16 ~rounding:`Local_ratio ~prng path tasks in
      Result.is_ok (Core.Checker.sap_feasible_within path ~bound:8 sol))

let band_rejects_out_of_band () =
  let path = Path.create [| 64; 64 |] in
  let t = Task.make ~id:0 ~first_edge:0 ~last_edge:1 ~demand:2 ~weight:1.0 in
  Alcotest.check_raises "bottleneck 64 not in [16,32)"
    (Invalid_argument "Small.solve_band: bottleneck outside [B, 2B)") (fun () ->
      ignore
        (Sap.Small.solve_band ~b:16 ~rounding:`Local_ratio
           ~prng:(Util.Prng.create 0) path [ t ]))

let band_nonempty_on_easy_input () =
  (* Plenty of slack: the band algorithm must capture real weight. *)
  let path = Path.uniform ~edges:4 ~capacity:20 in
  let mk id d = Task.make ~id ~first_edge:0 ~last_edge:3 ~demand:d ~weight:1.0 in
  let tasks = [ mk 0 1; mk 1 1; mk 2 1 ] in
  let sol, _ =
    Sap.Small.solve_band ~b:16 ~rounding:(`Lp 8) ~prng:(Util.Prng.create 1) path tasks
  in
  Alcotest.(check bool) "keeps at least 2 of 3" true (List.length sol >= 2)

(* The band LP's warm handle: an LP band returns one, a restart from it
   keeps the placements, and [`Local_ratio] and an empty band return
   none (the empty band before any LP). *)
let band_warm_handle () =
  let path, tasks = band_instance 3 in
  let solve ?warm rounding ts =
    Sap.Small.solve_band ?warm ~b:16 ~rounding ~prng:(Util.Prng.create 4) path ts
  in
  let cold, warm = solve (`Lp 8) tasks in
  Alcotest.(check bool) "LP band returns a handle" true (Option.is_some warm);
  Alcotest.(check bool) "warm restart keeps placements" true
    (fst (solve ?warm (`Lp 8) tasks) = cold);
  Alcotest.(check bool) "no handle without an LP" true
    (Option.is_none (snd (solve `Local_ratio tasks)));
  Alcotest.(check bool) "empty band" true (solve ?warm (`Lp 8) [] = ([], None))

(* ---------- strip_pack ---------- *)

let strip_pack_instance seed =
  let g = Util.Prng.create seed in
  let path = Gen.Profiles.staircase ~edges:(6 + Util.Prng.int g 6) ~steps:3 ~base:16 in
  let n = 6 + Util.Prng.int g 14 in
  let tasks = Gen.Workloads.small_tasks ~prng:g ~path ~n ~delta:0.25 () in
  (path, tasks)

let strip_pack_feasible =
  Helpers.seed_property ~count:40 "Strip-Pack output feasible" (fun seed ->
      let path, tasks = strip_pack_instance seed in
      let prng = Util.Prng.create (seed * 3) in
      let sol = Sap.Small.strip_pack ~rounding:(`Lp 8) ~prng path tasks in
      Result.is_ok (Core.Checker.sap_feasible path sol))

let strip_pack_band_disjoint =
  (* Each task of band t must live in the vertical slice [2^(t-1), 2^t). *)
  Helpers.seed_property ~count:40 "bands occupy disjoint slices" (fun seed ->
      let path, tasks = strip_pack_instance seed in
      let prng = Util.Prng.create (seed * 3) in
      let sol = Sap.Small.strip_pack ~rounding:`Local_ratio ~prng path tasks in
      List.for_all
        (fun ((j : Task.t), h) ->
          let t = Core.Classify.floor_log2 (Path.bottleneck_of path j) in
          let lo = 1 lsl (t - 1) and hi = 1 lsl t in
          lo <= h && h + j.Task.demand <= hi)
        sol)

let strip_pack_ratio_vs_exact =
  (* 4+eps holds for the paper's exact rounding engine; ours is the
     documented substitution, so assert with a little slack. *)
  Helpers.seed_property ~count:20 "ratio <= ~4+eps vs exact on tiny instances"
    (fun seed ->
      let g = Util.Prng.create seed in
      let path = Path.uniform ~edges:(3 + Util.Prng.int g 3) ~capacity:16 in
      let tasks = Gen.Workloads.small_tasks ~prng:g ~path ~n:7 ~delta:0.25 () in
      let prng = Util.Prng.create (seed + 11) in
      let sol = Sap.Small.strip_pack ~rounding:(`Lp 8) ~prng path tasks in
      let opt = Exact.Sap_brute.value path tasks in
      opt <= 1e-9 || Core.Solution.sap_weight sol >= (opt /. 5.0) -. 1e-9)

let strip_pack_parallel_deterministic =
  (* The band fan-out must be invisible: same placements (task ids AND
     heights) and the same master-generator position whether bands run on
     one domain or many. *)
  Helpers.seed_property ~count:25 "--parallel band fan-out = sequential"
    (fun seed ->
      let path, tasks = strip_pack_instance seed in
      let prng_seq = Util.Prng.create (seed * 7) in
      let seq = Sap.Small.strip_pack ~rounding:(`Lp 8) ~prng:prng_seq path tasks in
      let prng_par = Util.Prng.create (seed * 7) in
      let par =
        Sap.Small.strip_pack ~parallel:true ~rounding:(`Lp 8) ~prng:prng_par path
          tasks
      in
      seq = par && Util.Prng.int64 prng_seq = Util.Prng.int64 prng_par)

let strip_pack_empty () =
  let path = Path.uniform ~edges:3 ~capacity:8 in
  let sol = Sap.Small.strip_pack ~rounding:`Local_ratio ~prng:(Util.Prng.create 0) path [] in
  Alcotest.(check int) "empty" 0 (List.length sol)

let strip_pack_weight_sane =
  (* Both rounding engines should land in the same ballpark; neither may
     return a trivial solution when the LP sees real weight. *)
  Helpers.seed_property ~count:20 "captures positive weight when LP does"
    (fun seed ->
      let path, tasks = strip_pack_instance seed in
      let lp = Lp.Ufpp_lp.upper_bound path tasks in
      let prng = Util.Prng.create (seed + 5) in
      let sol = Sap.Small.strip_pack ~rounding:(`Lp 8) ~prng path tasks in
      lp <= 1e-9 || Core.Solution.sap_weight sol > 0.0)

let () =
  Alcotest.run "sap_small"
    [
      ( "solve_band",
        [
          band_packable_lp;
          band_packable_local_ratio;
          case "out of band rejected" band_rejects_out_of_band;
          case "easy input" band_nonempty_on_easy_input;
          case "warm handle" band_warm_handle;
        ] );
      ( "strip_pack",
        [
          strip_pack_feasible;
          strip_pack_band_disjoint;
          strip_pack_ratio_vs_exact;
          strip_pack_parallel_deterministic;
          case "empty" strip_pack_empty;
          strip_pack_weight_sane;
        ] );
    ]
