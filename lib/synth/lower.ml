type t = {
  aig : Aig.t;
  signals : (string, Aig.lit array) Hashtbl.t;
  design : Rtl.Design.t;
}

let bit_name base i = Printf.sprintf "%s[%d]" base i
let config_bit_name table e b = Printf.sprintf "%s[%d][%d]" table e b

let const_lits v =
  Array.init (Bitvec.width v) (fun i ->
      if Bitvec.get v i then Aig.true_ else Aig.false_)

(* Balanced mux tree over [addr] selecting [leaf index]; [pos] address bits
   cover indices [base .. base + 2^pos - 1]. *)
let rec mux_tree g (addr : Aig.lit array) leaf pos base =
  if pos = 0 then leaf base
  else begin
    let half = 1 lsl (pos - 1) in
    let hi = mux_tree g addr leaf (pos - 1) (base + half) in
    let lo = mux_tree g addr leaf (pos - 1) base in
    Aig.mux_ g addr.(pos - 1) hi lo
  end

let run (d : Rtl.Design.t) =
  Rtl.Design.validate d;
  let g = Aig.create () in
  let signals = Hashtbl.create 64 in
  (* Inputs. *)
  List.iter
    (fun (s : Rtl.Signal.t) ->
      let lits = Array.init s.width (fun i -> Aig.pi g (bit_name s.name i)) in
      Hashtbl.replace signals s.name lits)
    d.inputs;
  (* Registers: declare latches up front so feedback just works. *)
  List.iter
    (fun (r : Rtl.Design.reg) ->
      let s = r.q in
      let lits =
        Array.init s.Rtl.Signal.width (fun i ->
            Aig.latch g (bit_name s.Rtl.Signal.name i)
              ~init:(Bitvec.get r.init i) ~reset:r.reset ~is_config:r.is_config)
      in
      Hashtbl.replace signals s.Rtl.Signal.name lits)
    d.regs;
  (* Configuration tables: hold latches per bit. *)
  let config_bits = Hashtbl.create 8 in
  List.iter
    (fun (t : Rtl.Design.table) ->
      match t.storage with
      | Rtl.Design.Rom _ -> ()
      | Rtl.Design.Config ->
        let entry e =
          Array.init t.twidth (fun b ->
              let q =
                Aig.latch g (config_bit_name t.tname e b) ~init:false ~reset:Rtl.Design.No_reset ~is_config:true
              in
              Aig.set_next g q q;
              q)
        in
        Hashtbl.replace config_bits t.tname (Array.init t.depth entry))
    d.tables;
  let read_table name (addr : Aig.lit array) =
    let t = Rtl.Design.find_table d name in
    let k = Rtl.Design.addr_bits t in
    assert (Array.length addr = k);
    let leaf_bit =
      match t.storage with
      | Rtl.Design.Rom contents ->
        fun idx b ->
          if idx < t.depth && Bitvec.get contents.(idx) b then Aig.true_
          else Aig.false_
      | Rtl.Design.Config ->
        let entries = Hashtbl.find config_bits name in
        fun idx b -> if idx < t.depth then entries.(idx).(b) else Aig.false_
    in
    Array.init t.twidth (fun b -> mux_tree g addr (fun idx -> leaf_bit idx b) k 0)
  in
  let rec lower (e : Rtl.Expr.t) : Aig.lit array =
    match e with
    | Rtl.Expr.Const v -> const_lits v
    | Rtl.Expr.Signal s -> Hashtbl.find signals s.Rtl.Signal.name
    | Rtl.Expr.Unop (Rtl.Expr.Not, a) -> Array.map Aig.not_ (lower a)
    | Rtl.Expr.Unop (Rtl.Expr.Red_and, a) ->
      [| Aig.and_list g (Array.to_list (lower a)) |]
    | Rtl.Expr.Unop (Rtl.Expr.Red_or, a) ->
      [| Aig.or_list g (Array.to_list (lower a)) |]
    | Rtl.Expr.Unop (Rtl.Expr.Red_xor, a) ->
      [| Array.fold_left (Aig.xor_ g) Aig.false_ (lower a) |]
    | Rtl.Expr.Binop (op, a, b) -> lower_binop op a b
    | Rtl.Expr.Mux (sel, a, b) ->
      let s = (lower sel).(0) in
      let av = lower a and bv = lower b in
      Array.init (Array.length av) (fun i -> Aig.mux_ g s av.(i) bv.(i))
    | Rtl.Expr.Concat es ->
      (* Head is most significant: low parts (tail) come first in the array. *)
      Array.concat (List.rev_map lower es)
    | Rtl.Expr.Slice { e; hi; lo } -> Array.sub (lower e) lo (hi - lo + 1)
    | Rtl.Expr.Table_read { table; addr; _ } -> read_table table (lower addr)
  and lower_binop op a b =
    let av = lower a and bv = lower b in
    let n = Array.length av in
    let bitwise f = Array.init n (fun i -> f av.(i) bv.(i)) in
    match op with
    | Rtl.Expr.And -> bitwise (Aig.and_ g)
    | Rtl.Expr.Or -> bitwise (Aig.or_ g)
    | Rtl.Expr.Xor -> bitwise (Aig.xor_ g)
    | Rtl.Expr.Add -> adder av bv Aig.false_
    | Rtl.Expr.Sub -> adder av (Array.map Aig.not_ bv) Aig.true_
    | Rtl.Expr.Eq ->
      let same = Array.to_list (Array.mapi (fun i x -> Aig.not_ (Aig.xor_ g x bv.(i))) av) in
      [| Aig.and_list g same |]
    | Rtl.Expr.Ne ->
      let same = Array.to_list (Array.mapi (fun i x -> Aig.not_ (Aig.xor_ g x bv.(i))) av) in
      [| Aig.not_ (Aig.and_list g same) |]
    | Rtl.Expr.Ult ->
      (* LSB-to-MSB scan: lt' = (a_i = b_i) ? lt : ~a_i & b_i. *)
      let lt = ref Aig.false_ in
      Array.iteri
        (fun i x ->
          let differ = Aig.xor_ g x bv.(i) in
          let this = Aig.and_ g (Aig.not_ x) bv.(i) in
          lt := Aig.mux_ g differ this !lt)
        av;
      [| !lt |]
  and adder av bv carry0 =
    let n = Array.length av in
    let out = Array.make n Aig.false_ in
    let carry = ref carry0 in
    for i = 0 to n - 1 do
      let a = av.(i) and b = bv.(i) and c = !carry in
      let axb = Aig.xor_ g a b in
      out.(i) <- Aig.xor_ g axb c;
      carry := Aig.or_ g (Aig.and_ g a b) (Aig.and_ g c axb)
    done;
    out
  in
  (* Nets in dependency order. *)
  List.iter
    (fun ((s : Rtl.Signal.t), e) -> Hashtbl.replace signals s.name (lower e))
    (Rtl.Design.net_order d);
  (* Register next-state functions. *)
  List.iter
    (fun (r : Rtl.Design.reg) ->
      let q = Hashtbl.find signals r.q.Rtl.Signal.name in
      let dv = lower r.d in
      let dv =
        match r.enable with
        | None -> dv
        | Some en ->
          let e = (lower en).(0) in
          Array.mapi (fun i dbit -> Aig.mux_ g e dbit q.(i)) dv
      in
      Array.iteri (fun i qbit -> Aig.set_next g qbit dv.(i)) q)
    d.regs;
  (* Outputs. *)
  List.iter
    (fun ((s : Rtl.Signal.t), e) ->
      let lits = lower e in
      Array.iteri (fun i l -> Aig.po g (bit_name s.name i) l) lits)
    d.outputs;
  { aig = g; signals; design = d }
