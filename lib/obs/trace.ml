(* Chrome trace-event serialization (the chrome://tracing / Perfetto JSON
   format). Every completed span becomes one "X" (complete) event; domains
   render as separate threads of one process. *)

let json_of_value = function
  | Span.Int i -> Report.Json.Int i
  | Span.Float f -> Report.Json.Float f
  | Span.Str s -> Report.Json.String s
  | Span.Bool b -> Report.Json.Bool b

let event (f : Span.finished) =
  let open Report.Json in
  let base =
    [
      ("name", String f.name);
      ("cat", String "obs");
      ("ph", String "X");
      ("ts", Float f.start_us);
      ("dur", Float f.dur_us);
      ("pid", Int 1);
      ("tid", Int f.tid);
    ]
  in
  let args =
    match f.args with
    | [] -> []
    | args ->
      [ ("args", Obj (List.map (fun (k, v) -> (k, json_of_value v)) args)) ]
  in
  Obj (base @ args)

let to_json () =
  let open Report.Json in
  let events = List.map event (Span.completed ()) in
  let fields = [ ("traceEvents", List events) ] in
  let fields =
    match Span.dropped_count () with
    | 0 -> fields
    | d -> fields @ [ ("droppedSpans", Int d) ]
  in
  (* Extra top-level keys are legal in the object trace format (viewers
     ignore them); carrying the metrics snapshot makes one file enough to
     diagnose a run. *)
  Obj
    (fields
     @ [ ("metrics", Metrics.to_json ()); ("displayTimeUnit", String "ms") ])

(* Atomic publish: temp file in the destination directory, then rename, so
   a crash mid-write never leaves a torn trace behind. *)
let write path =
  let doc = to_json () in
  let dir = Filename.dirname path in
  let tmp = Filename.temp_file ~temp_dir:dir ".trace" ".tmp" in
  (try
     Out_channel.with_open_text tmp (fun oc -> Report.Json.to_channel oc doc);
     Sys.rename tmp path
   with Sys_error _ as e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e)

let install_at_exit path =
  at_exit (fun () ->
      try write path
      with Sys_error msg ->
        Printf.eprintf "error: cannot write trace %s: %s\n%!" path msg)
