let ident i =
  (* Printable short identifiers starting at '!', then two-char codes. *)
  let base = 94 and first = 33 in
  if i < base then String.make 1 (Char.chr (first + i))
  else
    String.init 2 (fun k ->
        Char.chr (first + if k = 0 then i / base - 1 else i mod base))

let signal_width (d : Design.t) name =
  let find_in l = List.find_opt (fun (s : Signal.t) -> s.name = name) l in
  match find_in d.inputs with
  | Some s -> Some s.width
  | None ->
    (match List.find_opt (fun ((s : Signal.t), _) -> s.name = name) d.nets with
     | Some (s, _) -> Some s.width
     | None ->
       (match List.find_opt (fun (r : Design.reg) -> r.q.Signal.name = name) d.regs with
        | Some r -> Some r.q.Signal.width
        | None ->
          (match
             List.find_opt (fun ((s : Signal.t), _) -> s.name = name) d.outputs
           with
           | Some (s, _) -> Some s.width
           | None -> None)))

let of_samples ~name ~signals rows =
  let buf = Buffer.create 4096 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  out "$date generated by ctrlgen $end\n";
  out "$version ctrlgen 1.0 $end\n";
  out "$timescale 1ns $end\n";
  out "$scope module %s $end\n" name;
  let clk_id = ident 0 in
  out "$var wire 1 %s clk $end\n" clk_id;
  let vars =
    List.mapi
      (fun i (sname, width) ->
        let id = ident (i + 1) in
        out "$var wire %d %s %s $end\n" width id sname;
        (sname, id, width))
      signals
  in
  out "$upscope $end\n$enddefinitions $end\n";
  let emit_value id width v =
    if width = 1 then
      out "%c%s\n" (if Bitvec.get v 0 then '1' else '0') id
    else out "b%s %s\n" (Bitvec.to_binary_string v) id
  in
  let previous : (string, Bitvec.t) Hashtbl.t = Hashtbl.create 16 in
  List.iteri
    (fun cycle row ->
      out "#%d\n" (cycle * 10);
      out "1%s\n" clk_id;
      (try
         List.iter2
           (fun (sname, id, width) v ->
             let changed =
               match Hashtbl.find_opt previous sname with
               | Some old -> not (Bitvec.equal old v)
               | None -> true
             in
             if changed then begin
               Hashtbl.replace previous sname v;
               emit_value id width v
             end)
           vars row
       with Invalid_argument _ ->
         invalid_arg "Vcd.of_samples: row length differs from signal list");
      out "#%d\n" ((cycle * 10) + 5);
      out "0%s\n" clk_id)
    rows;
  out "#%d\n" (List.length rows * 10);
  Buffer.contents buf

let of_run ?config (d : Design.t) ~stimulus ~watch =
  let st = Eval.create ?config d in
  let signals =
    List.map
      (fun name ->
        match signal_width d name with
        | None -> invalid_arg ("Vcd.of_run: unknown signal " ^ name)
        | Some width -> (name, width))
      watch
  in
  let rows =
    List.map
      (fun alist ->
        List.iter (fun (name, v) -> Eval.set_input st name v) alist;
        let row = List.map (Eval.peek st) watch in
        Eval.step st;
        row)
      stimulus
  in
  of_samples ~name:d.name ~signals rows
