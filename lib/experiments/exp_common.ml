let lib = Cells.Library.vt90

let default_flow = Synth.Flow.default

let annotated_flow = { Synth.Flow.default with honor_generator_annots = true }

let retimed_flow = { Synth.Flow.default with retime = true }

(* All figure synthesis funnels through the process-wide engine: repeated
   (design, options) pairs are served from its cache and batches run on
   several domains when the front-end configured -j. The default engine uses
   vt90, matching [lib]. *)
let engine () = Engine.default ()

let compile_report ?options d =
  Engine.report_exn (engine ()) (Engine.job ?options d)

let failure_log : string list ref = ref []

let record_failure msg = failure_log := msg :: !failure_log

let failures () = List.rev !failure_log

let areas_result jobs =
  let e = engine () in
  List.map2
    (fun (j : Engine.job) outcome ->
      match outcome with
      | Ok s -> Ok (Engine.Summary.area s)
      | Error err ->
        let msg =
          Printf.sprintf "synthesis job %s failed: %s" j.Engine.jname
            (Engine.Pool.error_message err)
        in
        record_failure msg;
        Error msg)
    jobs (Engine.run e jobs)

let fmt_area_result = function
  | Ok a -> Report.Table.fmt_area a
  | Error _ -> "FAIL"

(* A reference design whose whole area folds away (everything constant)
   gives no meaningful ratio: its cell prints "const", and summaries skip
   it like a failed compile. *)
let folds_to_const area = area <= 0.5

let ratio_opt a b =
  match (a, b) with
  | Ok a, Ok b when not (folds_to_const b) -> Some (a /. b)
  | _ -> None

let fmt_ratio_result a b =
  match (a, b) with
  | Ok _, Ok b when folds_to_const b -> "const"
  | _ -> Option.fold ~none:"-" ~some:Report.Table.fmt_ratio (ratio_opt a b)

let geomean = function
  | [] -> 1.0
  | xs ->
    exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
         /. float_of_int (List.length xs))

let out = ref Format.std_formatter

let printf fmt = Format.fprintf !out fmt
