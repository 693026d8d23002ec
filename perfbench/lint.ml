(* Runs domlint over perfbench/ with an empty allowlist; exits non-zero
   on any finding. Argument: the tree root holding perfbench/. *)

let () =
  let report = Domlint.scan_tree ~dirs:[ "perfbench" ] ~root:Sys.argv.(1) () in
  Format.printf "%a" Domlint.pp_report report;
  if not (Domlint.ok report) then exit 1
