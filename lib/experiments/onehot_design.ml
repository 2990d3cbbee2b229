type flop_style = Comb | Flop of Rtl.Design.reset_kind

let data_width = 8

let paper_widths = [ 2; 4; 8; 16; 32; 64; 128 ]

let all_styles =
  [
    ("comb", Comb);
    ("noreset", Flop Rtl.Design.No_reset);
    ("sync", Flop Rtl.Design.Sync_reset);
    ("async", Flop Rtl.Design.Async_reset);
  ]

(* Total one-hot decode: bit 0 also catches out-of-range selectors (possible
   when n is not a power of two), so the one-hot claim is a true invariant —
   Annot_check.inductive verifies exactly this. *)
let decode b sel n =
  let upper = List.init (n - 1) (fun j -> Rtl.Expr.eq_const sel (j + 1)) in
  let bit0 =
    match upper with
    | [] -> Rtl.Expr.of_int ~width:1 1
    | e :: rest ->
      Rtl.Expr.not_ (List.fold_left Rtl.Expr.or_ e rest)
  in
  Rtl.Builder.net b "y0" (Rtl.Expr.concat (List.rev (bit0 :: upper)))

(* Shared front end: sel input, decoder, optional register; returns y. *)
let front b ~n ~style =
  let sel = Rtl.Builder.input b "sel" (Bitvec.index_width n) in
  let y0 = decode b sel n in
  match style with
  | Comb -> Rtl.Builder.net b "y" y0
  | Flop reset ->
    let y =
      Rtl.Builder.reg b "y" ~reset ~init:(Bitvec.one_hot ~width:n 0) ~d:y0
    in
    let onehots = List.init n (fun i -> Bitvec.one_hot ~width:n i) in
    Rtl.Builder.annotate b (Rtl.Annot.value_set "y" onehots);
    y

let generic ~n ~style =
  let b = Rtl.Builder.create (Printf.sprintf "onehot_generic_%d" n) in
  let main = Rtl.Builder.input b "main" data_width in
  let alt = Rtl.Builder.input b "alt" data_width in
  let y = front b ~n ~style in
  (* multi = more than one bit of y set; identically 0 for one-hot y. *)
  let multi =
    Rtl.Builder.net b "multi"
      (Rtl.Expr.red_or
         (Rtl.Expr.and_ y (Rtl.Expr.sub y (Rtl.Expr.of_int ~width:n 1))))
  in
  Rtl.Builder.output b "out" (Rtl.Expr.mux multi alt main);
  Rtl.Builder.output b "y" y;
  Rtl.Builder.finish b

let direct ~n ~style =
  let b = Rtl.Builder.create (Printf.sprintf "onehot_direct_%d" n) in
  let main = Rtl.Builder.input b "main" data_width in
  let _alt = Rtl.Builder.input b "alt" data_width in
  let y = front b ~n ~style in
  Rtl.Builder.output b "out" main;
  Rtl.Builder.output b "y" y;
  Rtl.Builder.finish b
