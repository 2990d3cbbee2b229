open Cmdliner

type t = {
  jobs : int;
  cache_dir : string option;
  no_cache : bool;
  metrics : bool;
}

let range ?max min =
  let expected =
    match max with
    | None -> Printf.sprintf "expected an integer >= %d" min
    | Some max -> Printf.sprintf "expected an integer from %d to %d" min max
  in
  let max = Option.value max ~default:max_int in
  Arg.conv
    ( (fun s ->
        match int_of_string_opt s with
        | Some n when n >= min && n <= max -> Ok n
        | _ -> Error (`Msg expected)),
      Format.pp_print_int )

let term =
  let jobs =
    Arg.(value & opt (range 0) 1
         & info [ "j"; "jobs" ] ~docv:"N"
             ~doc:"Run synthesis jobs on $(docv) worker domains (0 = one \
                   per available core).")
  in
  let cache_dir =
    Arg.(value & opt (some string) None
         & info [ "cache-dir" ] ~docv:"DIR"
             ~doc:"Persist synthesis results and fault-campaign site \
                   outcomes under $(docv) and reuse them across \
                   invocations: a killed campaign rerun resumes.")
  in
  let no_cache =
    Arg.(value & flag
         & info [ "no-cache" ] ~doc:"Disable synthesis result caching.")
  in
  (* The trace is written at exit: a path it can never be written to is
     refused now, not found out after the run. *)
  let trace_path =
    Arg.conv
      ( (fun p ->
          let dir = Filename.dirname p in
          if Sys.file_exists dir && Sys.is_directory dir then Ok p
          else Error (`Msg (Printf.sprintf "no such directory: %s" dir))),
        Format.pp_print_string )
  in
  let trace =
    Arg.(value & opt (some trace_path) None
         & info [ "trace" ] ~docv:"PATH"
             ~doc:"Write a Chrome trace (chrome://tracing JSON, one span \
                   per synthesis pass / campaign) to $(docv) on exit. \
                   Never touches stdout.")
  in
  let metrics =
    Arg.(value & flag
         & info [ "metrics" ]
             ~doc:"Print the process metrics table (pass deltas, cache \
                   traffic, simulated cycles) and the time spent per span \
                   name to stderr after the run.")
  in
  let setup jobs cache_dir no_cache trace metrics =
    let jobs = if jobs = 0 then Domain.recommended_domain_count () else jobs in
    (* Observability on when either sink was requested; the at_exit hook
       writes the trace even on nonzero-exit paths. *)
    if metrics || trace <> None then Obs.set_enabled true;
    Option.iter Obs.Trace.install_at_exit trace;
    { jobs; cache_dir; no_cache; metrics }
  in
  Term.(const setup $ jobs $ cache_dir $ no_cache $ trace $ metrics)

let engine t lib =
  match
    Engine.create ~jobs:t.jobs ?cache_dir:t.cache_dir ~no_cache:t.no_cache
      lib
  with
  | e -> e
  | exception Invalid_argument msg ->
    Printf.eprintf "error: %s\n" msg;
    exit 2

let finish t engine =
  let stats = Engine.stats engine in
  if stats.Engine.submitted > 0 then prerr_string (Engine.stats_table stats);
  if t.metrics then begin
    prerr_string (Obs.Metrics.to_table ());
    prerr_string (Obs.Span.to_table ())
  end;
  match Engine.failures engine with
  | [] -> ()
  | failures ->
    Printf.eprintf "%d synthesis job(s) failed:\n" (List.length failures);
    List.iter (Printf.eprintf "  %s\n") failures;
    exit 1
