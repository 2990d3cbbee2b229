exception Parse_error of string

let fail fmt = Format.kasprintf (fun m -> raise (Parse_error m)) fmt

(* ------------------------------------------------------- tiny sexp core *)

type sexp = Atom of string | List of sexp list

(* Flat, like [write]'s entries; only parse errors print a sexp. *)
let rec pp_sexp fmt = function
  | Atom a -> Format.pp_print_string fmt a
  | List items ->
    Format.fprintf fmt "(%a)"
      (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.pp_print_char fmt ' ')
         pp_sexp)
      items

let parse_sexp text =
  let n = String.length text in
  let rec skip_ws i =
    if i < n && (text.[i] = ' ' || text.[i] = '\n' || text.[i] = '\t' || text.[i] = '\r')
    then skip_ws (i + 1)
    else if i < n && text.[i] = ';' then begin
      let rec eol j = if j < n && text.[j] <> '\n' then eol (j + 1) else j in
      skip_ws (eol i)
    end
    else i
  in
  let rec parse i =
    let i = skip_ws i in
    if i >= n then fail "unexpected end of input"
    else if text.[i] = '(' then parse_list (i + 1) []
    else if text.[i] = ')' then fail "unexpected ')'"
    else begin
      let rec atom_end j =
        if j < n
           && not
                (text.[j] = ' ' || text.[j] = '\n' || text.[j] = '\t'
                || text.[j] = '\r' || text.[j] = '(' || text.[j] = ')')
        then atom_end (j + 1)
        else j
      in
      let j = atom_end i in
      (Atom (String.sub text i (j - i)), j)
    end
  and parse_list i acc =
    let i = skip_ws i in
    if i >= n then fail "unterminated list"
    else if text.[i] = ')' then (List (List.rev acc), i + 1)
    else begin
      let item, j = parse i in
      parse_list j (item :: acc)
    end
  in
  let s, j = parse 0 in
  let j = skip_ws j in
  if j <> n then fail "trailing garbage after design";
  s

(* --------------------------------------------------------------- writing *)

let write (d : Design.t) =
  let b = Buffer.create 4096 in
  let add = Buffer.add_string b and sp () = Buffer.add_char b ' ' in
  let name = add in
  (* Digits by hand: [string_of_int] is a formatted C call, and every
     signal reference carries a width. *)
  let rec digits i =
    if i >= 10 then digits (i / 10);
    Buffer.add_char b (Char.unsafe_chr (48 + (i mod 10)))
  in
  let int i = if i < 0 then add (string_of_int i) else digits i in
  let bv v = add (Bitvec.to_string v) in
  let rec expr (e : Expr.t) =
    Buffer.add_char b '(';
    (match e with
     | Expr.Const v -> add "const "; bv v
     | Expr.Signal s -> add "sig "; name s.name; sp (); int s.width
     | Expr.Unop (op, a) ->
       add
         (match op with
          | Expr.Not -> "not " | Expr.Red_and -> "redand "
          | Expr.Red_or -> "redor " | Expr.Red_xor -> "redxor ");
       expr a
     | Expr.Binop (op, a, c) ->
       add
         (match op with
          | Expr.And -> "and " | Expr.Or -> "or " | Expr.Xor -> "xor "
          | Expr.Add -> "add " | Expr.Sub -> "sub " | Expr.Eq -> "eq "
          | Expr.Ne -> "ne " | Expr.Ult -> "ult ");
       expr a; sp (); expr c
     | Expr.Mux (s, a, c) -> add "mux "; expr s; sp (); expr a; sp (); expr c
     | Expr.Concat es -> add "concat"; List.iter (fun e -> sp (); expr e) es
     | Expr.Slice { e; hi; lo } -> add "slice "; expr e; sp (); int hi; sp (); int lo
     | Expr.Table_read { table; addr; width } ->
       add "read "; name table; sp (); int width; sp (); expr addr);
    Buffer.add_char b ')'
  in
  (* One section entry per line, everything in it flat. *)
  let section title entry items =
    add "\n ("; add title;
    List.iter (fun x -> add "\n  ("; entry x; Buffer.add_char b ')') items;
    Buffer.add_char b ')'
  in
  let signal (s : Signal.t) = name s.name; sp (); int s.width in
  let driven (s, e) = signal s; sp (); expr e in
  add "(design (name "; name d.name; add ")";
  section "inputs" signal d.inputs;
  section "nets" driven d.nets;
  section "regs"
    (fun (r : Design.reg) ->
      signal r.q;
      add " (reset ";
      add (Design.reset_kind_to_string r.reset);
      add ") (init "; bv r.init;
      add ") (config "; add (string_of_bool r.is_config); add ") ";
      Option.iter (fun en -> add "(enable "; expr en; add ") ") r.enable;
      expr r.d)
    d.regs;
  section "tables"
    (fun (t : Design.table) ->
      name t.tname; sp (); int t.twidth; sp (); int t.depth;
      match t.storage with
      | Design.Config -> add " (config)"
      | Design.Rom words ->
        add " (rom"; Array.iter (fun v -> sp (); bv v) words; add ")")
    d.tables;
  section "outputs" driven d.outputs;
  section "annots"
    (fun (a : Annot.t) ->
      add
        (match a.kind with
         | Annot.Value_set _ -> "value_set "
         | Annot.Fsm_state_vector _ -> "fsm_state_vector ");
      name a.target;
      add
        (match a.provenance with
         | Annot.Tool_detected -> " tool"
         | Annot.Generator -> " generator");
      List.iter (fun v -> sp (); bv v) (Annot.values a))
    d.annots;
  add ")\n";
  Buffer.contents b

(* --------------------------------------------------------------- reading *)

let parse_bv = function
  | Atom a ->
    (match String.index_opt a '\'' with
     | Some i when i + 1 < String.length a && a.[i + 1] = 'b' ->
       let bits = String.sub a (i + 2) (String.length a - i - 2) in
       let v = Bitvec.of_binary_string bits in
       if int_of_string_opt (String.sub a 0 i) <> Some (Bitvec.width v) then
         fail "bit vector width mismatch in %s" a;
       v
     | _ -> fail "expected bit vector, got %s" a)
  | List _ -> fail "expected bit vector atom"

let parse_int_atom = function
  | Atom a ->
    (match int_of_string_opt a with
     | Some v -> v
     | None -> fail "expected integer, got %s" a)
  | List _ -> fail "expected integer atom"

let rec parse_expr s : Expr.t =
  match s with
  | List [ Atom "const"; v ] -> Expr.const (parse_bv v)
  | List [ Atom "sig"; Atom name; w ] ->
    Expr.signal (Signal.make name (parse_int_atom w))
  | List [ Atom "not"; a ] -> Expr.not_ (parse_expr a)
  | List [ Atom "redand"; a ] -> Expr.red_and (parse_expr a)
  | List [ Atom "redor"; a ] -> Expr.red_or (parse_expr a)
  | List [ Atom "redxor"; a ] -> Expr.red_xor (parse_expr a)
  | List [ Atom "and"; a; b ] -> Expr.and_ (parse_expr a) (parse_expr b)
  | List [ Atom "or"; a; b ] -> Expr.or_ (parse_expr a) (parse_expr b)
  | List [ Atom "xor"; a; b ] -> Expr.xor (parse_expr a) (parse_expr b)
  | List [ Atom "add"; a; b ] -> Expr.add (parse_expr a) (parse_expr b)
  | List [ Atom "sub"; a; b ] -> Expr.sub (parse_expr a) (parse_expr b)
  | List [ Atom "eq"; a; b ] -> Expr.eq (parse_expr a) (parse_expr b)
  | List [ Atom "ne"; a; b ] -> Expr.ne (parse_expr a) (parse_expr b)
  | List [ Atom "ult"; a; b ] -> Expr.ult (parse_expr a) (parse_expr b)
  | List [ Atom "mux"; c; a; b ] ->
    Expr.mux (parse_expr c) (parse_expr a) (parse_expr b)
  | List (Atom "concat" :: es) -> Expr.concat (List.map parse_expr es)
  | List [ Atom "slice"; e; hi; lo ] ->
    Expr.slice (parse_expr e) ~hi:(parse_int_atom hi) ~lo:(parse_int_atom lo)
  | List [ Atom "read"; Atom table; w; addr ] ->
    Expr.table_read ~table ~width:(parse_int_atom w) ~addr:(parse_expr addr)
  | List (Atom op :: _) -> fail "unknown expression form %s" op
  | _ -> fail "malformed expression"

let parse_reset s =
  match s with
  | Atom a when Design.reset_kind_of_string a <> None ->
    Option.get (Design.reset_kind_of_string a)
  | _ -> fail "unknown reset kind %a" pp_sexp s

let section name = function
  | List (Atom n :: rest) when n = name -> rest
  | s -> fail "expected (%s ...), got %a" name pp_sexp s

let design_of_sections = function
  | [ name_s; inputs_s; nets_s; regs_s; tables_s; outputs_s; annots_s ] ->
    let name =
      match section "name" name_s with
      | [ Atom n ] -> n
      | _ -> fail "bad name section"
    in
    let inputs =
      List.map
        (function
          | List [ Atom n; w ] -> Signal.make n (parse_int_atom w)
          | s -> fail "bad input %a" pp_sexp s)
        (section "inputs" inputs_s)
    in
    let parse_driven = function
      | List [ Atom n; w; e ] -> (Signal.make n (parse_int_atom w), parse_expr e)
      | s -> fail "bad net/output %a" pp_sexp s
    in
    let nets = List.map parse_driven (section "nets" nets_s) in
    let outputs = List.map parse_driven (section "outputs" outputs_s) in
    let regs =
      List.map
        (function
          | List (Atom n :: w :: List [ Atom "reset"; r ]
                  :: List [ Atom "init"; iv ]
                  :: List [ Atom "config"; Atom cfg ] :: rest) ->
            let enable, d =
              match rest with
              | [ List [ Atom "enable"; en ]; d ] -> (Some (parse_expr en), d)
              | [ d ] -> (None, d)
              | _ -> fail "bad register body"
            in
            {
              Design.q = Signal.make n (parse_int_atom w);
              d = parse_expr d;
              reset = parse_reset r;
              init = parse_bv iv;
              enable;
              is_config =
                (match bool_of_string_opt cfg with
                 | Some b -> b
                 | None -> fail "bad config flag %s" cfg);
            }
          | s -> fail "bad register %a" pp_sexp s)
        (section "regs" regs_s)
    in
    let tables =
      List.map
        (function
          | List [ Atom n; w; depth; storage ] ->
            let storage =
              match storage with
              | List [ Atom "config" ] -> Design.Config
              | List (Atom "rom" :: words) ->
                Design.Rom (Array.of_list (List.map parse_bv words))
              | s -> fail "bad table storage %a" pp_sexp s
            in
            { Design.tname = n; twidth = parse_int_atom w;
              depth = parse_int_atom depth; storage }
          | s -> fail "bad table %a" pp_sexp s)
        (section "tables" tables_s)
    in
    let annots =
      List.map
        (function
          | List (Atom kind :: Atom target :: Atom prov :: values) ->
            let provenance =
              match prov with
              | "tool" -> Annot.Tool_detected
              | "generator" -> Annot.Generator
              | _ -> fail "unknown provenance %s" prov
            in
            let vs = List.map parse_bv values in
            (match kind with
             | "value_set" -> Annot.value_set ~provenance target vs
             | "fsm_state_vector" -> Annot.fsm_state_vector ~provenance target vs
             | _ -> fail "unknown annotation kind %s" kind)
          | s -> fail "bad annotation %a" pp_sexp s)
        (section "annots" annots_s)
    in
    Design.make ~name ~inputs ~outputs ~nets ~regs ~tables ~annots
  | _ -> fail "design must have name/inputs/nets/regs/tables/outputs/annots"

(* The one reader boundary: every constructor's refusal ([Signal], [Expr],
   [Annot], [Design.make]) becomes a parse error. *)
let read text =
  match parse_sexp text with
  | List (Atom "design" :: sections) -> (
    try design_of_sections sections with Invalid_argument m -> fail "%s" m)
  | _ -> fail "expected (design ...)"

let of_file path = read (In_channel.with_open_text path In_channel.input_all)
