"""One benchmark process: a CLI command, a traced CLI command, or a set-up probe.

    child.py run <irltrack CLI arguments>
    child.py trace <spans dir> <irltrack CLI arguments>
    child.py setup <config name> <out ini> [SECTION.KEY=VALUE ...]

`run` is what the `irltrack` console script does.  `trace` installs the span
recorder first and writes the spans out when the command returns.  `setup`
stops where a run would take its first step: import, override, parse and
resolve the config.
"""
import sys


def _setup(name, out_ini, overrides):
    from irltrack import cli, config

    config.apply_overrides(cli.resolve_config_path(name), overrides, out_ini)
    cfg, errors = config.parse_config(out_ini)
    if errors:
        print("\n".join(errors))
        return 2
    config.resolve(cfg)
    return 0


def main(argv):
    mode, args = argv[0], argv[1:]
    if mode == "setup":
        return _setup(args[0], args[1], args[2:])
    recorder = None
    if mode == "trace":
        from tracer import Recorder
        recorder = Recorder(args[0])
        recorder.install()
        args = args[1:]
    elif mode != "run":
        raise SystemExit(f"unknown mode {mode!r}")
    from irltrack.cli import main as cli_main
    try:
        return cli_main(args)
    finally:
        if recorder is not None:
            recorder.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
