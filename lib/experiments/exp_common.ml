let lib = Cells.Library.vt90

let default_flow = Synth.Flow.default

let annotated_flow = { Synth.Flow.default with honor_generator_annots = true }

let retimed_flow = { Synth.Flow.default with retime = true }

let areas_result engine jobs =
  List.map2
    (fun j outcome ->
      match outcome with
      | Ok s -> Ok (Engine.Summary.area s)
      | Error err -> Error (Engine.failure_message j err))
    jobs (Engine.run engine jobs)

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
