import gc

if __name__ == "__main__":
    # Off before cli is imported, so no young collection runs during the import.
    gc.disable()

from .cli import run  # noqa: E402

if __name__ == "__main__":
    run()
