let options (o : Synth.Flow.options) =
  (* Exhaustive destructuring: a new option field fails to compile here
     until it is added to the canonical form (warning 9 is fatal). *)
  let {
    Synth.Flow.collapse_cap;
    honor_generator_annots;
    annot_width_cap;
    retime;
  } =
    o
  in
  Printf.sprintf
    "(flow-options (collapse_cap %d) (honor_generator_annots %b) \
     (annot_width_cap %d) (retime %b))"
    collapse_cap honor_generator_annots annot_width_cap retime

let cell (c : Cells.Cell.t) =
  let { Cells.Cell.cname; func; area; delay } = c in
  let func =
    match func with
    | Cells.Cell.Comb { arity; table } ->
      Printf.sprintf "(comb %d %d)" arity table
    | Cells.Cell.Flop reset ->
      Printf.sprintf "(flop %s)" (Rtl.Design.reset_kind_to_string reset)
  in
  (* %h renders floats bit-exactly, so area/delay tweaks always re-key. *)
  Printf.sprintf "(cell %s %s %h %h)" cname func area delay

let library (l : Cells.Library.t) =
  Printf.sprintf "(library %s %s)" l.Cells.Library.lib_name
    (String.concat " " (List.map cell l.Cells.Library.cells))

(* Bumped on a deliberate change to flow output or to the canonical forms;
   see the interface. *)
let version = "(ctrlgen-key v4)"

let job ~lib ~options:o design =
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          [ version; Rtl.Serialize.write design; options o; library lib ]))
