module Task = Core.Task
module Path = Core.Path

let case = Helpers.case

let roundtrip_instance =
  Helpers.seed_property ~count:50 "instance round-trips" (fun seed ->
      let path, tasks = Helpers.tiny_instance ~max_tasks:12 seed in
      let s = Sap_io.Instance_io.instance_to_string path tasks in
      match Sap_io.Instance_io.instance_of_string s with
      | Error _ -> false
      | Ok (path', tasks') ->
          Path.capacities path = Path.capacities path' && tasks = tasks')

let roundtrip_solution =
  Helpers.seed_property ~count:50 "solution round-trips" (fun seed ->
      let path, tasks = Helpers.tiny_instance ~max_tasks:10 seed in
      let sol = Exact.Sap_brute.solve path tasks in
      let s = Sap_io.Instance_io.solution_to_string sol in
      match Sap_io.Instance_io.solution_of_string ~tasks s with
      | Error _ -> false
      | Ok sol' -> Core.Solution.sort_by_id sol = Core.Solution.sort_by_id sol')

let parse_with_comments () =
  let s = "# a comment\nsap-instance v1\n\ncapacities 4 5\n# another\ntask 0 0 1 2 3.5\n" in
  match Sap_io.Instance_io.instance_of_string s with
  | Error m -> Alcotest.failf "parse failed: %s" m
  | Ok (path, tasks) ->
      Alcotest.(check int) "edges" 2 (Path.num_edges path);
      Alcotest.(check int) "tasks" 1 (List.length tasks);
      Alcotest.(check bool) "weight" true
        (Helpers.close_enough (List.hd tasks).Task.weight 3.5)

let rejects_bad_header () =
  Alcotest.(check bool) "bad header" true
    (Result.is_error (Sap_io.Instance_io.instance_of_string "nonsense v9\ncapacities 3\n"))

let rejects_bad_task_line () =
  let s = "sap-instance v1\ncapacities 4\ntask 0 zero 0 1 1.0\n" in
  Alcotest.(check bool) "bad int" true
    (Result.is_error (Sap_io.Instance_io.instance_of_string s))

let rejects_task_off_path () =
  let s = "sap-instance v1\ncapacities 4\ntask 0 0 3 1 1.0\n" in
  Alcotest.(check bool) "off path" true
    (Result.is_error (Sap_io.Instance_io.instance_of_string s))

let rejects_invalid_task () =
  let s = "sap-instance v1\ncapacities 4\ntask 0 0 0 0 1.0\n" in
  Alcotest.(check bool) "zero demand" true
    (Result.is_error (Sap_io.Instance_io.instance_of_string s));
  let dup = "capacities 4 4\ntask 0 0 0 1 1.0\ntask 0 1 1 1 1.0\n" in
  Alcotest.(check bool) "duplicate id" true
    (Result.is_error (Sap_io.Instance_io.instance_of_string ("sap-instance v1\n" ^ dup)));
  Alcotest.(check bool) "duplicate id, round carrier" true
    (Result.is_error
       (Sap_io.Instance_io.round_instance_of_string ("round-instance v1\n" ^ dup)));
  List.iter
    (fun w ->
      Alcotest.(check bool) ("weight " ^ w) true
        (Result.is_error
           (Sap_io.Instance_io.instance_of_string
              ("sap-instance v1\ncapacities 4\ntask 0 0 0 1 " ^ w ^ "\n")));
      Alcotest.(check bool) ("ring weight " ^ w) true
        (Result.is_error
           (Sap_io.Instance_io.ring_of_string
              ("ring-instance v1\ncapacities 4 4 4\nrtask 0 0 1 1 " ^ w ^ "\n"))))
    [ "inf"; "-inf"; "nan" ]

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let quantity_limit () =
  let lim = Sap_io.Instance_io.max_quantity in
  let sap cap d =
    Printf.sprintf "sap-instance v1\ncapacities %d %d\ntask 0 0 1 %d 1.0\n" cap cap d
  in
  let round cap d =
    Printf.sprintf "round-instance v1\ncapacities %d %d\ntask 0 0 1 %d 1.0\n" cap cap d
  in
  let ring cap d =
    Printf.sprintf "ring-instance v1\ncapacities %d %d %d\nrtask 0 0 1 %d 1.0\n" cap cap
      cap d
  in
  let check what parse text ~ok =
    match parse text with
    | Ok _ -> if not ok then Alcotest.failf "%s: accepted" what
    | Error m ->
        if ok then Alcotest.failf "%s: rejected: %s" what m
        else
          Alcotest.(check bool) (what ^ ": names the limit") true
            (contains m (string_of_int lim))
  in
  List.iter
    (fun (carrier, parse, text) ->
      check (carrier ^ " at the limit") parse (text lim lim) ~ok:true;
      check (carrier ^ " capacity past it") parse (text (lim + 1) 1) ~ok:false;
      check (carrier ^ " demand past it") parse (text lim (lim + 1)) ~ok:false)
    [
      ("sap", (fun s -> Result.map ignore (Sap_io.Instance_io.instance_of_string s)), sap);
      ( "round",
        (fun s -> Result.map ignore (Sap_io.Instance_io.round_instance_of_string s)),
        round );
      ("ring", (fun s -> Result.map ignore (Sap_io.Instance_io.ring_of_string s)), ring);
    ]

let rejects_unknown_place_id () =
  let t = Task.make ~id:0 ~first_edge:0 ~last_edge:0 ~demand:1 ~weight:1.0 in
  Alcotest.(check bool) "unknown id" true
    (Result.is_error
       (Sap_io.Instance_io.solution_of_string ~tasks:[ t ] "sap-solution v1\nplace 7 0\n"))

let rejects_empty () =
  Alcotest.(check bool) "empty" true
    (Result.is_error (Sap_io.Instance_io.instance_of_string "  \n \n"))

let file_roundtrip () =
  let path, tasks = Helpers.tiny_instance 5 in
  let s = Sap_io.Instance_io.instance_to_string path tasks in
  let file = Filename.temp_file "sap_io_test" ".sap" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Sap_io.Instance_io.write_file file s;
      Alcotest.(check string) "file contents" s (Sap_io.Instance_io.read_file file))

let () =
  Alcotest.run "io"
    [
      ( "roundtrip",
        [ roundtrip_instance; roundtrip_solution; case "file" file_roundtrip ] );
      ( "parser",
        [
          case "comments" parse_with_comments;
          case "bad header" rejects_bad_header;
          case "bad task line" rejects_bad_task_line;
          case "task off path" rejects_task_off_path;
          case "invalid task" rejects_invalid_task;
          case "quantity limit" quantity_limit;
          case "unknown place id" rejects_unknown_place_id;
          case "empty" rejects_empty;
        ] );
    ]
