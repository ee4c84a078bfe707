"""One module per `hvol` command, imported only when that command runs.

Each module `hvol.commands.<name>` defines `add_arguments(parser)`, which
adds the command's own flags to its subparser, and `run(args)`, which runs
the parsed job and returns (Report, csv): csv builds the `--format csv` text,
or is None.  `cli.build_parser(name)` adds the flags every command shares.
"""
