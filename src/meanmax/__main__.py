from .cliargs import main

main()
