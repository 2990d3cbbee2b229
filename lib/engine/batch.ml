type 'b codec = {
  encode : 'b -> string;
  decode : string -> ('b, string) result;
}

let run ?(jobs = 1) ?journal ?(resume = []) ?on_checkpoint ~key ~codec f
    items =
  (* A kill loses at most the chunk in flight. *)
  let chunk_size = 4 * max 1 jobs in
  let resumed : (string, (string, string) result) Hashtbl.t =
    Hashtbl.create 64
  in
  List.iter
    (fun (e : Journal.entry) ->
      if not (Hashtbl.mem resumed e.key) then Hashtbl.add resumed e.key e.value)
    resume;
  (* Plan every item up front: resumed items decode from the journal, the
     rest run. A resumed payload that no longer decodes (foreign or corrupt
     journal) is recomputed rather than trusted. *)
  let plan =
    List.map
      (fun x ->
        let k = key x in
        match Hashtbl.find_opt resumed k with
        | Some (Ok enc) ->
          (match codec.decode enc with
           | Ok b -> `Done (k, Ok b)
           | Error _ -> `Todo (k, x))
        | Some (Error e) -> `Done (k, Error e)
        | None -> `Todo (k, x))
      items
  in
  let todo =
    List.filter_map (function `Todo kx -> Some kx | `Done _ -> None) plan
  in
  let computed : (string, ('b, string) result) Hashtbl.t = Hashtbl.create 64 in
  let journaled = ref 0 in
  let rec chunks = function
    | [] -> ()
    | rest ->
      let rec take n acc = function
        | x :: tl when n > 0 -> take (n - 1) (x :: acc) tl
        | tl -> (List.rev acc, tl)
      in
      let batch, rest = take chunk_size [] rest in
      let raw = Pool.map ~jobs (fun (_k, x) -> f x) batch in
      List.iter2
        (fun (k, _x) r ->
          let r =
            match r with
            | Ok b -> Ok b
            | Error e -> Error (Pool.error_message e)
          in
          Hashtbl.replace computed k r;
          Option.iter
            (fun j ->
              Journal.append j ~key:k
                ~value:
                  (match r with
                   | Ok b -> Ok (codec.encode b)
                   | Error e -> Error e))
            journal;
          incr journaled;
          Option.iter (fun cb -> cb !journaled) on_checkpoint)
        batch raw;
      chunks rest
  in
  chunks todo;
  List.map
    (function
      | `Done (_k, r) -> r
      | `Todo (k, _x) -> Hashtbl.find computed k)
    plan
