(* What one benchmark run accumulates: its options, the operation tally,
   correctness violations and the metrics it reports. *)

type t = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  sap_cli : string;  (** the shipped CLI the service workloads spawn *)
  mutable attempted : int;
  mutable failed : int;
  mutable violations : string list;  (** newest first *)
  mutable metrics : (Perf_metrics.metric * string) list;
      (** newest first, each with a note printed beside it *)
}

(* Result files, traces and sockets, relative to the repository root. *)
let out_dir = "_perf"

let now = Obs.Clock.monotonic_seconds

let attempt t = t.attempted <- t.attempted + 1

(* A failed operation: an error or timeout response, a lost request. *)
let fail t msg =
  t.failed <- t.failed + 1;
  if t.failed <= 5 then Printf.eprintf "perf: failed operation: %s\n%!" msg

(* Wrong output: a checker rejection, a replay that does not match, a
   result that changes between two solves of one input.  Any violation
   makes the run incorrect. *)
let violation t msg =
  if List.length t.violations < 20 then t.violations <- msg :: t.violations

let metric t ?(note = "") name unit_ value =
  t.metrics <- ({ Perf_metrics.name; value; unit_ }, note) :: t.metrics

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* VmHWM (peak resident set) of a live process, from procfs. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec scan () =
    match input_line ic with
    | exception End_of_file -> failwith ("no VmHWM in " ^ path)
    | line -> (
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> Scanf.sscanf v " %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | _ -> scan ())
  in
  scan ()

(* Geometry — capacities, spans and demands — comes from fixed streams,
   so every seed asks for the same amount of work; the seed redraws the
   weights, which steer the LP objective, the rounding, the surviving DP
   states and the chosen solutions. *)
let reweight prng tasks =
  List.map (fun j -> Core.Task.with_weight j (1.0 +. Util.Prng.float prng 99.0)) tasks
