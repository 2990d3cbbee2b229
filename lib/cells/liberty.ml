exception Parse_error of int * string

let fail line fmt = Format.kasprintf (fun m -> raise (Parse_error (line, m))) fmt

(* ------------------------------------------------------------ tokenizer *)

type token =
  | Ident of string
  | Str of string
  | Num of float
  | Punct of char

let tokenize text =
  let n = String.length text in
  let tokens = ref [] in
  let line = ref 1 in
  let rec go i =
    if i >= n then ()
    else
      match text.[i] with
      | '\n' -> incr line; go (i + 1)
      | ' ' | '\t' | '\r' -> go (i + 1)
      | '(' | ')' | '{' | '}' | ':' | ';' ->
        tokens := (!line, Punct text.[i]) :: !tokens;
        go (i + 1)
      | '"' ->
        let rec close j =
          if j >= n then fail !line "unterminated string"
          else if text.[j] = '"' then j
          else close (j + 1)
        in
        let j = close (i + 1) in
        tokens := (!line, Str (String.sub text (i + 1) (j - i - 1))) :: !tokens;
        go (j + 1)
      | c when (c >= '0' && c <= '9') || c = '.' || c = '-' ->
        let rec num_end j =
          if j < n
             && ((text.[j] >= '0' && text.[j] <= '9') || text.[j] = '.'
                || text.[j] = '-')
          then num_end (j + 1)
          else j
        in
        let j = num_end i in
        let s = String.sub text i (j - i) in
        (match float_of_string_opt s with
         | Some v -> tokens := (!line, Num v) :: !tokens
         | None -> fail !line "bad number %s" s);
        go j
      | c when (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' ->
        let rec ident_end j =
          if j < n
             && ((text.[j] >= 'a' && text.[j] <= 'z')
                || (text.[j] >= 'A' && text.[j] <= 'Z')
                || (text.[j] >= '0' && text.[j] <= '9')
                || text.[j] = '_')
          then ident_end (j + 1)
          else j
        in
        let j = ident_end i in
        tokens := (!line, Ident (String.sub text i (j - i))) :: !tokens;
        go j
      | c -> fail !line "unexpected character %c" c
  in
  go 0;
  List.rev !tokens

(* ----------------------------------------------- boolean function parser *)

(* Pins are A..D; precedence (tightest first): ! , ^ , * , + . *)
let parse_function line text =
  let n = String.length text in
  let pins = ref 0 in
  let pin_index c =
    let i = Char.code c - Char.code 'A' in
    if i < 0 || i > 3 then fail line "bad pin %c in function %s" c text;
    if i + 1 > !pins then pins := i + 1;
    i
  in
  let rec skip i = if i < n && text.[i] = ' ' then skip (i + 1) else i in
  (* Each parser returns (evaluator, next index). *)
  let rec p_or i =
    let a, i = p_and i in
    let i = skip i in
    if i < n && text.[i] = '+' then begin
      let b, j = p_or (i + 1) in
      ((fun env -> a env || b env), j)
    end
    else (a, i)
  and p_and i =
    let a, i = p_xor i in
    let i = skip i in
    if i < n && text.[i] = '*' then begin
      let b, j = p_and (i + 1) in
      ((fun env -> a env && b env), j)
    end
    else (a, i)
  and p_xor i =
    let a, i = p_unary i in
    let i = skip i in
    if i < n && text.[i] = '^' then begin
      let b, j = p_xor (i + 1) in
      ((fun env -> a env <> b env), j)
    end
    else (a, i)
  and p_unary i =
    let i = skip i in
    if i >= n then fail line "truncated function %s" text
    else if text.[i] = '!' then begin
      let a, j = p_unary (i + 1) in
      ((fun env -> not (a env)), j)
    end
    else if text.[i] = '(' then begin
      let a, j = p_or (i + 1) in
      let j = skip j in
      if j < n && text.[j] = ')' then (a, j + 1)
      else fail line "missing ')' in function %s" text
    end
    else begin
      let idx = pin_index text.[i] in
      ((fun env -> env idx), i + 1)
    end
  in
  let f, i = p_or 0 in
  if skip i <> n then fail line "trailing characters in function %s" text;
  let arity = max 1 !pins in
  let table = ref 0 in
  for assignment = 0 to (1 lsl arity) - 1 do
    if f (fun pin -> assignment lsr pin land 1 = 1) then
      table := !table lor (1 lsl assignment)
  done;
  (arity, !table)

(* --------------------------------------------------------------- parser *)

let parse text =
  let tokens = ref (tokenize text) in
  let peek () = match !tokens with [] -> None | t :: _ -> Some t in
  let next err =
    match !tokens with
    | [] -> fail 0 "unexpected end of file: expected %s" err
    | t :: rest ->
      tokens := rest;
      t
  in
  let expect_punct c =
    match next (Printf.sprintf "'%c'" c) with
    | _, Punct p when p = c -> ()
    | line, _ -> fail line "expected '%c'" c
  in
  let expect_ident name =
    match next name with
    | _, Ident i when i = name -> ()
    | line, _ -> fail line "expected %s" name
  in
  let ident err =
    match next err with
    | _, Ident i -> i
    | line, _ -> fail line "expected identifier (%s)" err
  in
  expect_ident "library";
  expect_punct '(';
  let lib_name = ident "library name" in
  expect_punct ')';
  expect_punct '{';
  let cells = ref [] in
  let rec parse_cells () =
    match peek () with
    | Some (_, Punct '}') ->
      tokens := List.tl !tokens
    | Some (_, Ident "cell") ->
      tokens := List.tl !tokens;
      expect_punct '(';
      let cname = ident "cell name" in
      expect_punct ')';
      expect_punct '{';
      let func = ref None and flop = ref None in
      let area = ref None and delay = ref None in
      let rec attrs () =
        match next "attribute or '}'" with
        | _, Punct '}' -> ()
        | _line, Ident key ->
          expect_punct ':';
          (match key, next "attribute value" with
           | "function", (l, Str s) -> func := Some (parse_function l s)
           | "flop", (_, Ident r) when Rtl.Design.reset_kind_of_string r <> None
             ->
             flop := Rtl.Design.reset_kind_of_string r
           | "area", (_, Num v) -> area := Some v
           | "delay", (_, Num v) -> delay := Some v
           | _, (l, _) -> fail l "bad attribute %s" key);
          expect_punct ';';
          attrs ()
        | line, _ -> fail line "expected attribute"
      in
      attrs ();
      let line = 0 in
      let area = match !area with Some v -> v | None -> fail line "cell %s: missing area" cname in
      let delay = match !delay with Some v -> v | None -> fail line "cell %s: missing delay" cname in
      let cell =
        match !func, !flop with
        | Some (arity, table), None ->
          Cell.make_comb cname ~arity ~table ~area ~delay
        | None, Some reset -> Cell.make_flop cname ~reset ~area ~delay
        | Some _, Some _ -> fail line "cell %s: both function and flop" cname
        | None, None -> fail line "cell %s: needs function or flop" cname
      in
      cells := cell :: !cells;
      parse_cells ()
    | Some (line, _) -> fail line "expected cell or '}'"
    | None -> fail 0 "unexpected end of file in library body"
  in
  parse_cells ();
  { Library.lib_name; cells = List.rev !cells }

let of_file path = parse (In_channel.with_open_text path In_channel.input_all)

(* -------------------------------------------------------------- printing *)

let function_of_table arity table =
  (* Canonical SOP over pins A..; empty ON-set prints as a contradiction. *)
  let pin i = String.make 1 (Char.chr (Char.code 'A' + i)) in
  let minterm m =
    String.concat "*"
      (List.init arity (fun i ->
           if m lsr i land 1 = 1 then pin i else "!" ^ pin i))
  in
  let ons =
    List.filter (fun m -> table lsr m land 1 = 1)
      (List.init (1 lsl arity) Fun.id)
  in
  match ons with
  | [] -> Printf.sprintf "%s*!%s" (pin 0) (pin 0)
  | _ -> String.concat "+" (List.map minterm ons)

let print (lib : Library.t) =
  let buf = Buffer.create 1024 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  out "library (%s) {\n" lib.Library.lib_name;
  List.iter
    (fun (c : Cell.t) ->
      match c.func with
      | Cell.Comb { arity; table } ->
        out "  cell (%s) { function : \"%s\"; area : %g; delay : %g; }\n"
          c.cname (function_of_table arity table) c.area c.delay
      | Cell.Flop reset ->
        out "  cell (%s) { flop : %s; area : %g; delay : %g; }\n" c.cname
          (Rtl.Design.reset_kind_to_string reset) c.area c.delay)
    lib.Library.cells;
  out "}\n";
  Buffer.contents buf

let check_mappable lib =
  let missing = ref [] in
  List.iter
    (fun name ->
      match Library.find lib name with
      | _ -> ()
      | exception Not_found -> missing := name :: !missing)
    [ "INV"; "NAND2"; "NOR2"; "AND2"; "OR2"; "XOR2"; "XNOR2"; "MUX2";
      "NAND3"; "NOR3"; "AOI21"; "OAI21" ];
  List.iter
    (fun reset ->
      match Library.flop lib reset with
      | _ -> ()
      | exception Not_found -> missing := "a flop cell" :: !missing)
    [ Rtl.Design.No_reset; Rtl.Design.Sync_reset; Rtl.Design.Async_reset ];
  match !missing with
  | [] -> Ok ()
  | m -> Error ("missing cells: " ^ String.concat ", " (List.rev m))
