type entry = { key : string; value : (string, string) result }

type t = { oc : out_channel; mutable closed : bool }

let ends_torn path =
  In_channel.with_open_bin path (fun ic ->
      let n = In_channel.length ic in
      n > 0L
      && (In_channel.seek ic (Int64.pred n);
          In_channel.input_char ic <> Some '\n'))

let open_append path =
  let oc =
    Out_channel.open_gen [ Open_append; Open_creat; Open_text ] 0o644 path
  in
  (* A kill mid-write can leave a torn last line: end it, so the first new
     record does not join it and get skipped with it. *)
  if ends_torn path then Out_channel.output_char oc '\n';
  { oc; closed = false }

let append t ~key ~value =
  if t.closed then invalid_arg "Journal.append: journal is closed";
  let fields =
    match value with
    | Ok v -> [ ("k", Report.Json.String key); ("v", Report.Json.String v) ]
    | Error e -> [ ("k", Report.Json.String key); ("e", Report.Json.String e) ]
  in
  Out_channel.output_string t.oc (Report.Json.to_string (Report.Json.Obj fields));
  Out_channel.output_char t.oc '\n';
  (* Each record is durable on its own: a kill between appends loses at most
     the in-flight line, which [load] then discards as malformed. *)
  Out_channel.flush t.oc

let close t =
  if not t.closed then begin
    t.closed <- true;
    Out_channel.close t.oc
  end

(* ------------------------------------------------- reading journals back *)

(* A record is an object with a string [k] and exactly one of a string [v]
   or a string [e]. Any other line, including one truncated by a mid-write
   kill, is skipped. *)
let record line =
  let open Report.Json in
  match of_string line with
  | Ok (Obj fields) ->
    (match
       ( List.assoc_opt "k" fields,
         List.assoc_opt "v" fields,
         List.assoc_opt "e" fields )
     with
     | Some (String key), Some (String v), None -> Some { key; value = Ok v }
     | Some (String key), None, Some (String e) -> Some { key; value = Error e }
     | _ -> None)
  | _ -> None

let load path =
  if not (Sys.file_exists path) then []
  else
    List.filter_map record
      (In_channel.with_open_text path In_channel.input_lines)
