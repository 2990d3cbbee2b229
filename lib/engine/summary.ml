type t = {
  report : Synth.Map.report;
  aig_ands : int;
  aig_latches : int;
}

let of_flow (r : Synth.Flow.result) =
  {
    report = r.Synth.Flow.report;
    aig_ands = Aig.num_ands r.Synth.Flow.aig;
    aig_latches = Aig.num_latches r.Synth.Flow.aig;
  }

let area t = Synth.Map.total t.report

let to_string t =
  let open Report.Json in
  let r = t.report in
  let float f = String (Printf.sprintf "%h" f) in
  to_string
    (Obj
       [
         ("comb_area", float r.Synth.Map.comb_area);
         ("seq_area", float r.seq_area);
         ("critical_delay", float r.critical_delay);
         ("num_flops", Int r.num_flops);
         ("config_bits", Int r.config_bits);
         ("aig_ands", Int t.aig_ands);
         ("aig_latches", Int t.aig_latches);
         ( "cells",
           List (List.map (fun (c, n) -> List [ String c; Int n ]) r.cell_counts)
         );
       ])

let of_string text =
  let open Report.Json in
  let ( let* ) = Result.bind in
  let* fields =
    match of_string text with
    | Ok (Obj fields) -> Ok fields
    | Ok _ -> Error "not a JSON object"
    | Error m -> Error m
  in
  let field name conv =
    match Option.bind (List.assoc_opt name fields) conv with
    | Some v -> Ok v
    | None -> Error ("missing or malformed field " ^ name)
  in
  let float = function String s -> float_of_string_opt s | _ -> None in
  let int = function Int i -> Some i | _ -> None in
  let cell = function List [ String c; Int n ] -> Some (c, n) | _ -> None in
  let cells = function
    | List l ->
      let cs = List.filter_map cell l in
      if List.length cs = List.length l then Some cs else None
    | _ -> None
  in
  let* comb_area = field "comb_area" float in
  let* seq_area = field "seq_area" float in
  let* critical_delay = field "critical_delay" float in
  let* num_flops = field "num_flops" int in
  let* config_bits = field "config_bits" int in
  let* aig_ands = field "aig_ands" int in
  let* aig_latches = field "aig_latches" int in
  let* cell_counts = field "cells" cells in
  Ok
    {
      report =
        { Synth.Map.comb_area; seq_area; cell_counts; critical_delay;
          num_flops; config_bits };
      aig_ands;
      aig_latches;
    }
