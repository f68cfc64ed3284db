(* Outputs are a function of (instance, seed) alone.  With every hash table
   seeded at random, solving one instance twice must place the same tasks
   at the same heights: no result may depend on a table's iteration order.
   [Hashtbl.randomize] is process-wide, hence an executable of its own. *)

let () = Hashtbl.randomize ()

(* The offline-medium geometry of the repository benchmark
   (bench/perf/offline.ml): mixed demands on 28-edge walks. *)
let instances =
  List.init 200 (fun i ->
      let g = Util.Prng.create (1_000_003 + i) in
      let path =
        Gen.Profiles.random_walk ~prng:g ~edges:28 ~start:48 ~max_step:12 ~min_cap:6
      in
      (path, Gen.Workloads.mixed_tasks ~prng:g ~path ~n:40 ~max_span:6 ()))

let twice name solve () =
  let moved = List.filter (fun inst -> solve inst <> solve inst) instances in
  if moved <> [] then
    Alcotest.failf "%s: %d of %d instances placed differently on a second solve" name
      (List.length moved) (List.length instances)

let combine (path, ts) =
  List.map
    (fun ((j : Core.Task.t), h) -> (j.Core.Task.id, h))
    (Core.Solution.sort_by_id (Sap.Combine.solve path ts))

(* Unit weights make equal-weight selections common, so the tie-break
   decides the answer. *)
let band_dp (path, ts) =
  let ts = List.map (fun j -> Core.Task.with_weight j 1.0) ts in
  List.sort Int.compare
    (List.map (fun (j : Core.Task.t) -> j.Core.Task.id) (Ufpp.Band_dp.solve path ts).Ufpp.Band_dp.solution)

let () =
  Alcotest.run "hash_seed"
    [
      ( "randomized tables",
        [
          Alcotest.test_case "combine placements repeat" `Quick (twice "combine" combine);
          Alcotest.test_case "band DP selections repeat" `Quick (twice "band DP" band_dp);
        ] );
    ]
