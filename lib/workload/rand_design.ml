(* A pool-based generator: every generated expression draws leaves from the
   pool of already-declared signals and is then added back (as a net) with
   some probability, so designs grow realistic shared structure. *)

let widths = [ 1; 2; 3; 4; 5; 8 ]

let adapt rng e target =
  (* Coerce an expression to [target] bits. *)
  let w = Rtl.Expr.width e in
  if w = target then e
  else if w > target then
    let lo = Rng.int rng (w - target + 1) in
    Rtl.Expr.slice e ~hi:(lo + target - 1) ~lo
  else Rtl.Expr.zero_extend e target

let generate ~seed =
  let rng = Rng.make (Hashtbl.hash ("design", seed)) in
  let b = Rtl.Builder.create (Printf.sprintf "fuzz%d" seed) in
  let pool = ref [] in
  let add e = pool := e :: !pool in
  (* Inputs. *)
  let num_inputs = 1 + Rng.int rng 3 in
  for i = 0 to num_inputs - 1 do
    add (Rtl.Builder.input b (Printf.sprintf "i%d" i) (Rng.pick rng widths))
  done;
  (* Registers are declared first so expressions can use their outputs
     (feedback included). *)
  let num_regs = Rng.int rng 4 in
  let reg_names =
    List.init num_regs (fun i ->
        let name = Printf.sprintf "r%d" i in
        let width = Rng.pick rng widths in
        let reset =
          Rng.pick rng
            [ Rtl.Design.No_reset; Rtl.Design.Sync_reset; Rtl.Design.Async_reset ]
        in
        let init = Rng.bitvec rng ~width in
        add (Rtl.Builder.reg_declare b name ~width ~reset ~init);
        (name, width))
  in
  (* An occasional ROM. *)
  let rom_width =
    if Rng.int rng 100 < 40 then begin
      let depth = 2 + Rng.int rng 7 in
      let width = Rng.pick rng widths in
      Rtl.Builder.rom b "mem" ~width
        (Array.init depth (fun _ -> Rng.bitvec rng ~width));
      Some (depth, width)
    end
    else None
  in
  let leaf target =
    adapt rng (Rng.pick rng !pool) target
  in
  let rec expr depth target =
    if depth = 0 then leaf target
    else begin
      let sub () = expr (depth - 1) target in
      match Rng.int rng 12 with
      | 0 -> Rtl.Expr.and_ (sub ()) (sub ())
      | 1 -> Rtl.Expr.or_ (sub ()) (sub ())
      | 2 -> Rtl.Expr.xor (sub ()) (sub ())
      | 3 -> Rtl.Expr.add (sub ()) (sub ())
      | 4 -> Rtl.Expr.sub (sub ()) (sub ())
      | 5 -> Rtl.Expr.not_ (sub ())
      | 6 ->
        let w = Rng.pick rng widths in
        let a = expr (depth - 1) w and c = expr (depth - 1) w in
        adapt rng
          (Rtl.Expr.mux (expr (depth - 1) 1) a c)
          target
      | 7 ->
        let w = Rng.pick rng widths in
        adapt rng
          (Rtl.Expr.eq (expr (depth - 1) w) (expr (depth - 1) w))
          target
      | 8 ->
        let w = Rng.pick rng widths in
        adapt rng
          (Rtl.Expr.ult (expr (depth - 1) w) (expr (depth - 1) w))
          target
      | 9 ->
        adapt rng
          (Rtl.Expr.concat [ sub (); expr (depth - 1) (Rng.pick rng widths) ])
          target
      | 10 ->
        adapt rng
          (Rtl.Expr.concat
             [ Rtl.Expr.red_and (sub ()); Rtl.Expr.red_or (sub ());
               Rtl.Expr.red_xor (sub ()) ])
          target
      | _ ->
        (match rom_width with
         | Some (depth_, width) ->
           let t = { Rtl.Design.tname = "mem"; twidth = width; depth = depth_;
                     storage = Rtl.Design.Config (* unused: addr_bits only *) }
           in
           let abits = Rtl.Design.addr_bits t in
           adapt rng
             (Rtl.Expr.table_read ~table:"mem" ~width
                ~addr:(expr (depth - 1) abits))
             target
         | None -> leaf target)
    end
  in
  (* Some shared nets. *)
  let num_nets = 1 + Rng.int rng 4 in
  for i = 0 to num_nets - 1 do
    let target = Rng.pick rng widths in
    add (Rtl.Builder.net b (Printf.sprintf "n%d" i) (expr (1 + Rng.int rng 2) target))
  done;
  (* Connect registers. *)
  List.iter
    (fun (name, width) ->
      let enable =
        if Rng.int rng 100 < 30 then Some (expr 1 1) else None
      in
      Rtl.Builder.reg_connect b ?enable name (expr (1 + Rng.int rng 2) width))
    reg_names;
  (* Outputs. *)
  let num_outputs = 1 + Rng.int rng 3 in
  for i = 0 to num_outputs - 1 do
    Rtl.Builder.output b (Printf.sprintf "o%d" i)
      (expr (1 + Rng.int rng 2) (Rng.pick rng widths))
  done;
  Rtl.Builder.finish b
