(* Scratch directories for tests that write a cache dir or a trace.
   [with_dir prefix f] runs [f] on a fresh path
   [<temp dir>/<prefix>-<pid>-<n>], not yet created (an engine's first job
   creates its cache dir), and afterwards removes whatever is there,
   nested directories too, however [f] returns. *)

let counter = ref 0

let rec remove path =
  if Sys.is_directory path then begin
    Array.iter (fun n -> remove (Filename.concat path n)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_dir prefix f =
  incr counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) !counter)
  in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then remove dir)
    (fun () -> f dir)
