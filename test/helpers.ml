(* Shared helpers for the test suite: seed-driven instance generation (so
   qcheck shrinks over seeds, not structures) and assertion utilities. *)

module Task = Core.Task
module Path = Core.Path

let check_ok what = function
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: %s" what msg

let assert_feasible_sap path sol = check_ok "sap feasible" (Core.Checker.sap_feasible path sol)

let assert_feasible_ufpp path ts = check_ok "ufpp feasible" (Core.Checker.ufpp_feasible path ts)

(* The sap_cli binary, a dependency of the test rule.  dune runtest runs
   with cwd = _build/default/test; dune exec from the workspace root.
   Probe both locations. *)
let cli =
  let candidates =
    [
      Filename.concat (Filename.concat ".." "bin") "sap_cli.exe";
      Filename.concat (Filename.concat "_build/default" "bin") "sap_cli.exe";
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> List.hd candidates

(* Deterministic small instance families, indexed by an integer seed. *)

let random_path prng =
  match Util.Prng.int prng 4 with
  | 0 ->
      Gen.Profiles.uniform
        ~edges:(Util.Prng.int_in prng 3 8)
        ~capacity:(Util.Prng.int_in prng 4 20)
  | 1 ->
      Gen.Profiles.valley
        ~edges:(Util.Prng.int_in prng 4 8)
        ~high:(Util.Prng.int_in prng 12 24)
        ~low:(Util.Prng.int_in prng 4 10)
  | 2 ->
      Gen.Profiles.staircase
        ~edges:(Util.Prng.int_in prng 4 8)
        ~steps:(Util.Prng.int_in prng 2 3)
        ~base:(Util.Prng.int_in prng 4 8)
  | _ ->
      Gen.Profiles.random_walk ~prng
        ~edges:(Util.Prng.int_in prng 4 8)
        ~start:(Util.Prng.int_in prng 8 16)
        ~max_step:3 ~min_cap:4

let tiny_instance ?(max_tasks = 9) seed =
  let prng = Util.Prng.create seed in
  let path = random_path prng in
  let n = Util.Prng.int_in prng 2 max_tasks in
  let tasks = Gen.Workloads.mixed_tasks ~prng ~path ~n () in
  (path, tasks)

let tiny_ratio_instance ?(max_tasks = 9) ~lo ~hi seed =
  let prng = Util.Prng.create seed in
  let path = random_path prng in
  let n = Util.Prng.int_in prng 2 max_tasks in
  let tasks = Gen.Workloads.ratio_tasks ~prng ~path ~n ~lo ~hi () in
  (path, tasks)

(* qcheck boilerplate: a property over integer seeds, registered as an
   alcotest case. *)
let seed_property ?(count = 60) name prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count ~name
       QCheck.(int_range 0 1_000_000)
       prop)

let close_enough ?(tol = 1e-6) a b = Float.abs (a -. b) <= tol *. (1.0 +. Float.abs a)

let case name f = Alcotest.test_case name `Quick f
