type t = {
  base : string;
  nodes : int array;
  values : Bitvec.t list;
  provenance : Rtl.Annot.provenance;
  on_state : bool;
}

let width t = Array.length t.nodes

let extract (low : Lower.t) =
  let of_annot (a : Rtl.Annot.t) =
    match Hashtbl.find_opt low.signals a.target with
    | None -> None
    | Some lits ->
      let plain =
        Array.for_all
          (fun l ->
            (not (Aig.is_complemented l))
            &&
            match Aig.kind low.aig (Aig.node_of_lit l) with
            | Aig.Pi | Aig.Latch -> true
            | Aig.Const | Aig.And -> false)
          lits
      in
      if not plain then None
      else begin
        let nodes = Array.map Aig.node_of_lit lits in
        let on_state =
          Array.for_all (fun n -> Aig.kind low.aig n = Aig.Latch) nodes
        in
        Some
          { base = a.target; nodes; values = Rtl.Annot.values a;
            provenance = a.provenance; on_state }
      end
  in
  List.filter_map of_annot low.design.annots

let honored ~generator ~width_cap annots =
  let keep a =
    let prov_ok =
      match a.provenance with
      | Rtl.Annot.Tool_detected -> true
      | Rtl.Annot.Generator -> generator
    in
    prov_ok && width a <= width_cap
  in
  List.filter keep annots

let relocate g t =
  let find i =
    let name = Lower.bit_name t.base i in
    match Aig.find_latch g name with
    | Some n -> Some n
    | None -> Aig.find_pi g name
  in
  let nodes = Array.init (Array.length t.nodes) find in
  if Array.for_all Option.is_some nodes then
    Some { t with nodes = Array.map Option.get nodes }
  else None

let member_table t =
  if width t > 30 then invalid_arg "Annots.member_table: too wide";
  let tbl = Hashtbl.create (List.length t.values) in
  List.iter (fun v -> Hashtbl.replace tbl (Bitvec.to_int v) ()) t.values;
  tbl
