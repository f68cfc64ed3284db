let schema_version = "sap-stats v3"

let enable_all () =
  Metrics.enable ();
  Trace.enable ()

let disable_all () =
  Metrics.disable ();
  Trace.disable ()

let reset_all () =
  Metrics.reset ();
  Trace.reset ()

let build ?(extra = []) ?(include_spans = true) () =
  Json.Obj
    (("schema", Json.String schema_version)
     :: ("clock", Clock.anchor_json (Clock.anchor ()))
     :: extra
    @ ("metrics", Metrics.snapshot_json ())
      :: (if include_spans then [ ("spans", Trace.json ()) ] else []))

(* Write to a temp file in the destination directory, then rename: a
   crashed or killed run can never leave a truncated report behind to
   poison a later [bench-diff].  [open_temp_file] defaults to owner-only
   0o600; 0o666 gives the report the mode [open_out] would, umask
   applied. *)
let write_file path report =
  let dir = Filename.dirname path in
  let tmp, oc =
    try Filename.open_temp_file ~perms:0o666 ~temp_dir:dir ".sap-report-" ".tmp"
    with Sys_error m -> raise (Sys_error ("cannot write " ^ path ^ ": " ^ m))
  in
  match
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc (Json.to_string_pretty report);
        output_char oc '\n')
  with
  | () -> Sys.rename tmp path
  | exception e ->
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e
