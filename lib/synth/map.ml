type report = {
  comb_area : float;
  seq_area : float;
  cell_counts : (string * int) list;
  critical_delay : float;
  num_flops : int;
  config_bits : int;
}

let total r = r.comb_area +. r.seq_area

type pattern =
  | Pxor of Aig.lit * Aig.lit            (* n = XOR(a, b) as literals *)
  | Pmux of Aig.lit * Aig.lit * Aig.lit  (* n = ~mux(s, a, b) *)
  | Pand3 of Aig.lit * Aig.lit * Aig.lit (* n = a & b & c *)
  | Pnor3 of Aig.lit * Aig.lit * Aig.lit (* n = ~a & ~b & ~c, literals given
                                            in positive form *)
  | Paoi of Aig.lit * Aig.lit * Aig.lit  (* n = ~((a & b) | c) *)
  | Poai of Aig.lit * Aig.lit * Aig.lit  (* ~n = ~((a | b) & c) *)

let detect_patterns ~complex_cells g =
  let fanout = Aig.fanout_counts g in
  (* Indexed by node id: the pattern a node roots, and whether a
     pattern's root absorbed the node. *)
  let patterns : pattern option array = Array.make (Aig.num_nodes g) None in
  let covered = Array.make (Aig.num_nodes g) false in
  let claimable c =
    Aig.kind g c = Aig.And && fanout.(c) = 1 && (not covered.(c))
    && Option.is_none patterns.(c)
  in
  (* First scan: 3-node XOR / MUX shapes (the biggest win). Top-down so a
     parent claims its children before they claim others. *)
  for n = Aig.num_nodes g - 1 downto 1 do
    if Aig.kind g n = Aig.And && not covered.(n) then begin
      let f0, f1 = Aig.fanins g n in
      let x = Aig.node_of_lit f0 and y = Aig.node_of_lit f1 in
      if
        Aig.is_complemented f0 && Aig.is_complemented f1
        && x <> y && claimable x && claimable y
      then begin
        let a0, a1 = Aig.fanins g x and b0, b1 = Aig.fanins g y in
        let pat =
          if (a0 = Aig.not_ b0 && a1 = Aig.not_ b1)
             || (a0 = Aig.not_ b1 && a1 = Aig.not_ b0)
          then Some (Pxor (a0, a1))
          else if a0 = Aig.not_ b0 then Some (Pmux (a0, a1, b1))
          else if a0 = Aig.not_ b1 then Some (Pmux (a0, a1, b0))
          else if a1 = Aig.not_ b0 then Some (Pmux (a1, a0, b1))
          else if a1 = Aig.not_ b1 then Some (Pmux (a1, a0, b0))
          else None
        in
        match pat with
        | Some p ->
          patterns.(n) <- Some p;
          covered.(x) <- true;
          covered.(y) <- true
        | None -> ()
      end
    end
  done;
  (* Second scan: 2-node shapes onto the 3-input cells. For n = AND(f, g)
     with a single-fanout AND child x behind f:
       f = x,  x = a & b            -> n = a & b & g          (AND3/NAND3)
       f = ~x, x = a & b            -> n = ~(a & b) & g
                                        = ~((a & b) | ~g)     (AOI21)
       f = ~x, x = ~a & ~b          -> n = (a | b) & g,
                                       ~n = ~((a | b) & g)    (OAI21)
     and when both fanins are complemented non-claimable-pair shapes, the
     NOR3 form n = ~a & ~b & ~c via a nested AND of complemented inputs. *)
  if complex_cells then
    for n = Aig.num_nodes g - 1 downto 1 do
      if
        Aig.kind g n = Aig.And
        && (not covered.(n))
        && Option.is_none patterns.(n)
      then begin
        let f0, f1 = Aig.fanins g n in
        let try_child f g_other =
          let x = Aig.node_of_lit f in
          if claimable x then begin
            let a, bb = Aig.fanins g x in
            if not (Aig.is_complemented f) then begin
              (* n = (a & b) & g. NOR3 when everything is complemented
                 (n = ~a' & ~b' & ~g'), else AND3. *)
              if
                Aig.is_complemented a && Aig.is_complemented bb
                && Aig.is_complemented g_other
              then
                Some (x, Pnor3 (Aig.not_ a, Aig.not_ bb, Aig.not_ g_other))
              else Some (x, Pand3 (a, bb, g_other))
            end
            else if Aig.is_complemented a && Aig.is_complemented bb then
              (* x = ~a' & ~b'; n = (a' | b') & g *)
              Some (x, Poai (Aig.not_ a, Aig.not_ bb, g_other))
            else
              (* n = ~(a & b) & g = ~((a & b) | ~g) *)
              Some (x, Paoi (a, bb, Aig.not_ g_other))
          end
          else None
        in
        let chosen =
          match try_child f0 f1 with
          | Some _ as r -> r
          | None -> try_child f1 f0
        in
        match chosen with
        | Some (x, p) ->
          patterns.(n) <- Some p;
          covered.(x) <- true
        | None -> ()
      end
    done;
  (patterns, covered)

(* One mapped gate: the cell, whether its output is the positive phase of
   the AIG node, and its pins as (source node, wants-positive) in the
   cell's input order. *)
type instance = {
  inst_cell : Cells.Cell.t;
  out_positive : bool;
  pins : (int * bool) list;
}

let run_full ?(complex_cells = true) lib g =
  let patterns, covered = detect_patterns ~complex_cells g in
  let instances : (int, instance) Hashtbl.t = Hashtbl.create 256 in
  let num_nodes = Aig.num_nodes g in
  (* Pin-level phase needs per node id: is the positive (negative) phase
     consumed somewhere? *)
  let need_pos = Array.make num_nodes false
  and need_neg = Array.make num_nodes false in
  let need l =
    let n = Aig.node_of_lit l in
    if n <> 0 then (if Aig.is_complemented l then need_neg else need_pos).(n) <- true
  in
  let pin_needs n =
    match patterns.(n) with
    | Some (Pxor (a, b)) ->
      (* Parity is absorbed by the XOR2/XNOR2 variant: pins take the
         positive value of each input node. *)
      need (Aig.lit_of_node (Aig.node_of_lit a) false);
      need (Aig.lit_of_node (Aig.node_of_lit b) false)
    | Some (Pmux (s, a, b))
    | Some (Pand3 (s, a, b))
    | Some (Pnor3 (s, a, b))
    | Some (Paoi (s, a, b))
    | Some (Poai (s, a, b)) -> need s; need a; need b
    | None ->
      let f0, f1 = Aig.fanins g n in
      if Aig.is_complemented f0 = Aig.is_complemented f1 then begin
        (* NOR2/OR2 (both complemented) and AND2/NAND2 (both plain) take
           positive pins. *)
        need (Aig.lit_of_node (Aig.node_of_lit f0) false);
        need (Aig.lit_of_node (Aig.node_of_lit f1) false)
      end
      else begin
        need f0; need f1
      end
  in
  for n = 1 to num_nodes - 1 do
    if Aig.kind g n = Aig.And && not covered.(n) then pin_needs n
  done;
  List.iter (fun (_, l) -> need l) (Aig.pos g);
  List.iter (fun n -> need (Aig.latch_next g n)) (Aig.latches g);
  (* Emission. *)
  let counts : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let comb_area = ref 0.0 in
  let emit name =
    let c = Cells.Library.find lib name in
    comb_area := !comb_area +. c.Cells.Cell.area;
    Hashtbl.replace counts name (1 + Option.value ~default:0 (Hashtbl.find_opt counts name));
    c
  in
  (* Indexed by node id: [driven.(n)] when a PI, latch or emitted cell
     drives node [n]; [produced_pos.(n)] when that PI, latch or cell
     outputs the positive phase (PIs and latches do; so does every
     undriven node);
     [arrival.(n)] its output arrival, 0 when undriven. *)
  let driven = Array.make num_nodes false in
  let produced_pos = Array.make num_nodes true in
  let arrival = Array.make num_nodes 0.0 in
  let inv = Cells.Library.find lib "INV" in
  let flop_arrival n =
    let _, _, reset, _ = Aig.latch_info g n in
    (Cells.Library.flop lib reset).Cells.Cell.delay
  in
  let pin_arrival source_node want_pos =
    let base = arrival.(source_node) in
    if produced_pos.(source_node) = want_pos then base
    else base +. inv.Cells.Cell.delay
  in
  for n = 1 to num_nodes - 1 do
    match Aig.kind g n with
    | Aig.Const -> ()
    | Aig.Pi -> driven.(n) <- true
    | Aig.Latch ->
      driven.(n) <- true;
      arrival.(n) <- flop_arrival n
    | Aig.And ->
      if not covered.(n) then begin
        let p = need_pos.(n) and ng_ = need_neg.(n) in
        let prefer_pos = p || not ng_ in
        let cell, out_pos, pins =
          match patterns.(n) with
          | Some (Pxor (a, b)) ->
            let parity = Aig.is_complemented a <> Aig.is_complemented b in
            (* positive n = XOR(pos a, pos b) xor parity *)
            let variant =
              if prefer_pos = parity then "XNOR2" else "XOR2"
            in
            ( emit variant, prefer_pos,
              [ (Aig.node_of_lit a, true); (Aig.node_of_lit b, true) ] )
          | Some (Pmux (s, a, b)) ->
            (* n = ~(s ? a : b); MUX2 pin order is (s=0 branch, s=1 branch,
               select), so [b] rides the first pin. Output = negative
               phase of n. *)
            ( emit "MUX2", false,
              [ (Aig.node_of_lit b, not (Aig.is_complemented b));
                (Aig.node_of_lit a, not (Aig.is_complemented a));
                (Aig.node_of_lit s, not (Aig.is_complemented s)) ] )
          | Some (Pand3 (a, b, c)) ->
            (* NAND3 output = ~(a & b & c) = negative phase. *)
            ( emit "NAND3", false,
              [ (Aig.node_of_lit a, not (Aig.is_complemented a));
                (Aig.node_of_lit b, not (Aig.is_complemented b));
                (Aig.node_of_lit c, not (Aig.is_complemented c)) ] )
          | Some (Pnor3 (a, b, c)) ->
            (* NOR3 output = ~a & ~b & ~c = positive phase. *)
            ( emit "NOR3", true,
              [ (Aig.node_of_lit a, not (Aig.is_complemented a));
                (Aig.node_of_lit b, not (Aig.is_complemented b));
                (Aig.node_of_lit c, not (Aig.is_complemented c)) ] )
          | Some (Paoi (a, b, c)) ->
            (* AOI21 output = ~((a & b) | c) = positive phase of n. *)
            ( emit "AOI21", true,
              [ (Aig.node_of_lit a, not (Aig.is_complemented a));
                (Aig.node_of_lit b, not (Aig.is_complemented b));
                (Aig.node_of_lit c, not (Aig.is_complemented c)) ] )
          | Some (Poai (a, b, c)) ->
            (* OAI21 output = ~((a | b) & c) = negative phase of n. *)
            ( emit "OAI21", false,
              [ (Aig.node_of_lit a, not (Aig.is_complemented a));
                (Aig.node_of_lit b, not (Aig.is_complemented b));
                (Aig.node_of_lit c, not (Aig.is_complemented c)) ] )
          | None ->
            let f0, f1 = Aig.fanins g n in
            let c0 = Aig.is_complemented f0 and c1 = Aig.is_complemented f1 in
            if c0 && c1 then
              (* n = ~a & ~b: NOR2 gives +n, OR2 gives -n, positive pins. *)
              ( emit (if prefer_pos then "NOR2" else "OR2"), prefer_pos,
                [ (Aig.node_of_lit f0, true); (Aig.node_of_lit f1, true) ] )
            else begin
              (* AND-family; complemented pins handled by shared INVs. When
                 both phases are needed, NAND2 + INV beats AND2 + INV. *)
              let prefer_pos = if p && ng_ then false else prefer_pos in
              ( emit (if prefer_pos then "AND2" else "NAND2"), prefer_pos,
                [ (Aig.node_of_lit f0, not c0); (Aig.node_of_lit f1, not c1) ] )
            end
        in
        let arr =
          List.fold_left
            (fun acc (src, want_pos) -> Float.max acc (pin_arrival src want_pos))
            0.0 pins
        in
        driven.(n) <- true;
        produced_pos.(n) <- out_pos;
        Hashtbl.replace instances n
          { inst_cell = cell; out_positive = out_pos; pins };
        arrival.(n) <- arr +. cell.Cells.Cell.delay;
        (* Record which phases the pins actually consume (for INV count). *)
        List.iter
          (fun (src, want_pos) ->
            if src <> 0 then (if want_pos then need_pos else need_neg).(src) <- true)
          pins
      end
  done;
  (* Shared inverters: one per node phase that is needed but not produced. *)
  for n = 1 to num_nodes - 1 do
    if driven.(n) && (if produced_pos.(n) then need_neg.(n) else need_pos.(n))
    then ignore (emit "INV")
  done;
  (* Sequential area. *)
  let seq_area = ref 0.0 in
  let num_flops = ref 0 and config_bits = ref 0 in
  List.iter
    (fun n ->
      let _, _, reset, is_config = Aig.latch_info g n in
      let c = Cells.Library.flop lib reset in
      seq_area := !seq_area +. c.Cells.Cell.area;
      incr num_flops;
      if is_config then incr config_bits;
      Hashtbl.replace counts c.Cells.Cell.cname
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts c.Cells.Cell.cname)))
    (Aig.latches g);
  (* Critical path: PO pins and latch D pins. *)
  let root_arrival l =
    let n = Aig.node_of_lit l in
    if n = 0 then 0.0 else pin_arrival n (not (Aig.is_complemented l))
  in
  let crit = ref 0.0 in
  List.iter (fun (_, l) -> crit := Float.max !crit (root_arrival l)) (Aig.pos g);
  List.iter
    (fun n -> crit := Float.max !crit (root_arrival (Aig.latch_next g n)))
    (Aig.latches g);
  let cell_counts =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts []
    |> List.sort Stdlib.compare
  in
  ( {
      comb_area = !comb_area;
      seq_area = !seq_area;
      cell_counts;
      critical_delay = !crit;
      num_flops = !num_flops;
      config_bits = !config_bits;
    },
    instances )

(* The mapped netlist must compute the same functions as the AIG: simulate
   the instances gate by gate against the AIG's own evaluation on random
   input/state assignments. *)
let selfcheck ?(samples = 64) ?complex_cells lib g =
  let _, instances = run_full ?complex_cells lib g in
  let rng = Random.State.make [| 0x6d61; Aig.num_nodes g |] in
  let check_sample () =
    let pi_vals = Hashtbl.create 16 and latch_vals = Hashtbl.create 16 in
    List.iter (fun n -> Hashtbl.replace pi_vals n (Random.State.bool rng)) (Aig.pis g);
    List.iter
      (fun n -> Hashtbl.replace latch_vals n (Random.State.bool rng))
      (Aig.latches g);
    let reference =
      Aig.eval_all g
        ~pi:(Hashtbl.find pi_vals)
        ~latch:(Hashtbl.find latch_vals)
    in
    (* Gate-level values, topologically (instance inputs precede outputs). *)
    let node_value = Hashtbl.create 256 in
    List.iter (fun n -> Hashtbl.replace node_value n (Hashtbl.find pi_vals n)) (Aig.pis g);
    List.iter
      (fun n -> Hashtbl.replace node_value n (Hashtbl.find latch_vals n))
      (Aig.latches g);
    let rec failure_at n =
      if n >= Aig.num_nodes g then None
      else
        match Hashtbl.find_opt instances n with
        | None -> failure_at (n + 1)
        | Some inst ->
          let assignment =
            List.fold_left
              (fun (i, acc) (src, want_pos) ->
                let v = Hashtbl.find node_value src in
                let v = if want_pos then v else not v in
                (i + 1, if v then acc lor (1 lsl i) else acc))
              (0, 0) inst.pins
            |> snd
          in
          let out = Cells.Cell.eval_comb inst.inst_cell assignment in
          let v = if inst.out_positive then out else not out in
          Hashtbl.replace node_value n v;
          if v <> reference (Aig.lit_of_node n false) then Some n
          else failure_at (n + 1)
    in
    failure_at 1
  in
  let rec go i =
    if i >= samples then Ok ()
    else
      match check_sample () with
      | None -> go (i + 1)
      | Some n -> Error (Printf.sprintf "mapped gate for node %d diverges" n)
  in
  go 0

let pp_report fmt r =
  Format.fprintf fmt
    "@[<v>area: comb %.1f + seq %.1f = %.1f um^2 (%d flops, %d config bits)@,\
     critical path: %.3f ns@,cells:"
    r.comb_area r.seq_area (total r) r.num_flops r.config_bits r.critical_delay;
  List.iter (fun (c, k) -> Format.fprintf fmt " %s:%d" c k) r.cell_counts;
  Format.fprintf fmt "@]"
