type entry = { key : string; value : string }

type t = out_channel

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
  oc

let append oc ~key ~value =
  Out_channel.output_string oc
    (Report.Json.to_string
       (Report.Json.Obj
          [ ("k", Report.Json.String key); ("v", Report.Json.String value) ]));
  Out_channel.output_char oc '\n';
  (* Each record is durable on its own: a kill between appends loses at most
     the in-flight line, which [load] then discards as malformed. *)
  Out_channel.flush oc

(* ------------------------------------------------- reading journals back *)

(* A record is an object with a string [k] and a string [v]. Any other
   line, including one truncated by a mid-write kill, is skipped. *)
let record line =
  let open Report.Json in
  match of_string line with
  | Ok (Obj fields) ->
    (match (List.assoc_opt "k" fields, List.assoc_opt "v" fields) with
     | Some (String key), Some (String value) -> Some { key; value }
     | _ -> None)
  | _ -> None

let load path =
  if not (Sys.file_exists path) then []
  else
    List.filter_map record
      (In_channel.with_open_text path In_channel.input_lines)
