(* Wire naming: the positive value of AIG node [n] lives on wire [n<id>]
   when produced positively, or the produced (negative) value lives there
   and an INV generates [n<id>x] on demand. The INV-on-demand rule mirrors
   Map's accounting (one inverter per node phase needed but not produced),
   so instance counts line up with the report. *)

let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
      | _ -> '_')
    name

let pin_names = [| "A"; "B"; "C"; "D" |]

let build lib ~name g instances =
  let buf = Buffer.create 4096 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let counts = Hashtbl.create 16 in
  let count name =
    Hashtbl.replace counts name
      (1 + Option.value ~default:0 (Hashtbl.find_opt counts name))
  in
  let inst_id = ref 0 in
  let fresh_inst () = incr inst_id; Printf.sprintf "g%d" !inst_id in
  (* Base wire of each node (carrying its produced phase) and whether that
     phase is positive. *)
  let base_wire = Hashtbl.create 256 in
  let produced_pos = Hashtbl.create 256 in
  List.iter
    (fun n ->
      Hashtbl.replace base_wire n (sanitize (Aig.pi_name g n));
      Hashtbl.replace produced_pos n true)
    (Aig.pis g);
  List.iter
    (fun n ->
      let name, _, _, _ = Aig.latch_info g n in
      Hashtbl.replace base_wire n (sanitize name);
      Hashtbl.replace produced_pos n true)
    (Aig.latches g);
  let body = Buffer.create 4096 in
  let outb fmt = Printf.ksprintf (Buffer.add_string body) fmt in
  (* Lazily materialized inverters, one per node. *)
  let inv_wire = Hashtbl.create 64 in
  let wire_of_node n want_pos =
    if n = 0 then (if want_pos then "zero" else "one")
    else begin
      let base = Hashtbl.find base_wire n in
      if Hashtbl.find produced_pos n = want_pos then base
      else
        match Hashtbl.find_opt inv_wire n with
        | Some w -> w
        | None ->
          let w = base ^ "x" in
          count "INV";
          outb "  INV %s (.A(%s), .Y(%s));\n" (fresh_inst ()) base w;
          Hashtbl.replace inv_wire n w;
          w
    end
  in
  let wire_of_lit l =
    wire_of_node (Aig.node_of_lit l) (not (Aig.is_complemented l))
  in
  (* Gates in topological order (ids ascending). *)
  for n = 1 to Aig.num_nodes g - 1 do
    match Hashtbl.find_opt instances n with
    | None -> ()
    | Some (inst : Map.instance) ->
      let w = Printf.sprintf "n%d" n in
      Hashtbl.replace base_wire n w;
      Hashtbl.replace produced_pos n inst.Map.out_positive;
      let pins =
        List.mapi
          (fun i (src, want_pos) ->
            Printf.sprintf ".%s(%s)" pin_names.(i) (wire_of_node src want_pos))
          inst.Map.pins
      in
      count inst.Map.inst_cell.Cells.Cell.cname;
      outb "  %s %s (%s, .Y(%s));\n" inst.Map.inst_cell.Cells.Cell.cname
        (fresh_inst ()) (String.concat ", " pins) w
  done;
  (* Flops. *)
  List.iter
    (fun n ->
      let name, _, reset, _ = Aig.latch_info g n in
      let cell = Cells.Library.flop lib reset in
      count cell.Cells.Cell.cname;
      let d = wire_of_lit (Aig.latch_next g n) in
      let rst_pin =
        match reset with
        | Rtl.Design.No_reset -> ""
        | Rtl.Design.Sync_reset | Rtl.Design.Async_reset -> ", .RST(rst)"
      in
      outb "  %s %s (.D(%s), .CLK(clk)%s, .Q(%s));\n" cell.Cells.Cell.cname
        (fresh_inst ()) d rst_pin (sanitize name))
    (Aig.latches g);
  (* Outputs. *)
  List.iter
    (fun (name, l) ->
      let rhs =
        let n = Aig.node_of_lit l in
        if n = 0 then if Aig.is_complemented l then "1'b1" else "1'b0"
        else wire_of_lit l
      in
      outb "  assign %s = %s;\n" (sanitize name) rhs)
    (Aig.pos g);
  (* Header. *)
  let ports =
    [ "input clk"; "input rst" ]
    @ List.map (fun n -> "input " ^ sanitize (Aig.pi_name g n)) (Aig.pis g)
    @ List.map (fun (name, _) -> "output " ^ sanitize name) (Aig.pos g)
  in
  out "// mapped with library %s\n" lib.Cells.Library.lib_name;
  out "module %s (\n  %s\n);\n" (sanitize name) (String.concat ",\n  " ports);
  out "  wire zero = 1'b0;\n  wire one = 1'b1;\n";
  List.iter
    (fun n ->
      let name, _, _, _ = Aig.latch_info g n in
      out "  wire %s;\n" (sanitize name))
    (Aig.latches g);
  for n = 1 to Aig.num_nodes g - 1 do
    if Hashtbl.mem instances n then out "  wire n%d;\n" n
  done;
  Hashtbl.iter (fun _ w -> out "  wire %s;\n" w) inv_wire;
  Buffer.add_buffer buf body;
  out "endmodule\n";
  (Buffer.contents buf, counts)

let emit lib ~name g instances = fst (build lib ~name g instances)

let instance_counts lib g instances =
  let _, counts = build lib ~name:"" g instances in
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts []
  |> List.sort Stdlib.compare
